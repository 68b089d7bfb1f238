package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jointadmin/internal/obs"
)

// TCPNode is a TCP-backed endpoint: it listens on its own address and
// dials peers on demand (connections are cached per destination). Each
// Envelope travels as one length-prefixed binary frame (see the package
// comment).
//
// Connection state is per peer: each peer carries its own lock that
// serializes dials and frame writes to that destination, so two
// concurrent Sends to one peer never interleave bytes on the shared
// connection, and a slow dial to a dead peer never blocks sends to
// healthy ones (the node-wide lock only guards the peer table itself).
// Failed writes drop the peer's connection and, governed by Options,
// are retried with exponential backoff and a fresh dial.
type TCPNode struct {
	name     string
	listener net.Listener
	opts     Options

	// reg holds the node's metrics registry (Instrument); a nil pointer
	// drops the accounting. Atomic because the accept/read loops consult
	// it concurrently with Instrument.
	reg atomic.Pointer[obs.Registry]

	// rng feeds the retry jitter; guarded by rngMu (math/rand.Rand is not
	// safe for concurrent use).
	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	peers    map[string]*tcpPeer
	accepted map[net.Conn]bool
	inbox    chan Envelope

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// tcpPeer is one destination's connection state. Its lock serializes
// dialing and frame writes to the peer; it is never held together with
// the node lock (lock order: node, then peer).
type tcpPeer struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
}

// Transport metric names. Frame/byte counters are labeled dir="in"/"out";
// per-peer connection gauges and error counters are labeled by peer name.
const (
	// MetricFrames counts envelopes moved, labeled dir="in"/"out"; an
	// outbound frame is counted when its write is attempted.
	MetricFrames = "transport_frames_total"
	// MetricBytes counts frame payload bytes moved (including the 4-byte
	// length prefix), labeled dir="in"/"out"; outbound bytes are counted
	// with the frame's write attempt.
	MetricBytes = "transport_bytes_total"
	// MetricDialErrors counts failed dials, labeled by peer.
	MetricDialErrors = "transport_dial_errors_total"
	// MetricSendErrors counts failed frame writes, labeled by peer.
	MetricSendErrors = "transport_send_errors_total"
	// MetricAcceptErrors counts listener accept failures.
	MetricAcceptErrors = "transport_accept_errors_total"
	// MetricPeerConns gauges open dialed connections, labeled by peer.
	MetricPeerConns = "transport_peer_conns"
	// MetricAcceptedConns gauges open accepted (inbound) connections.
	MetricAcceptedConns = "transport_accepted_conns"
	// MetricSendRetries counts retried send attempts (attempt 2 and
	// later), labeled by peer.
	MetricSendRetries = "transport_send_retries_total"
	// MetricRedials counts connections re-dialed after a failed write or
	// dial, labeled by peer.
	MetricRedials = "transport_redials_total"
	// MetricWriteTimeouts counts frame writes that exceeded the configured
	// write deadline, labeled by peer (also counted in send errors).
	MetricWriteTimeouts = "transport_write_timeouts_total"
)

// Instrument injects a metrics registry for frame, byte, error and
// connection accounting. Call it right after ListenTCP, before the node
// carries traffic; nil (the default) disables the accounting.
func (n *TCPNode) Instrument(reg *obs.Registry) {
	if reg != nil {
		n.reg.Store(reg)
	}
}

// metrics returns the injected registry (nil disables accounting; the
// obs API is nil-safe).
func (n *TCPNode) metrics() *obs.Registry { return n.reg.Load() }

var _ Endpoint = (*TCPNode)(nil)

// ListenTCP starts a node listening on addr ("127.0.0.1:0" picks a free
// port; use Addr to learn it). An optional Options value configures
// deadlines and the retry policy; omitted, the defaults apply.
func ListenTCP(name, addr string, opts ...Options) (*TCPNode, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		name:     name,
		listener: l,
		opts:     o,
		rng:      o.newRNG(),
		peers:    make(map[string]*tcpPeer),
		accepted: make(map[net.Conn]bool),
		inbox:    make(chan Envelope, 1024),
		closed:   make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listening address.
func (n *TCPNode) Addr() string { return n.listener.Addr().String() }

// Name returns the node's name.
func (n *TCPNode) Name() string { return n.name }

// AddPeer registers a peer's address for dialing. Re-registering a peer
// at a new address drops any cached connection to the old one, so a peer
// that restarts on a fresh ephemeral port (policyctl does this on every
// invocation) is re-dialed instead of written to over a dead socket.
func (n *TCPNode) AddPeer(name, addr string) {
	n.mu.Lock()
	p, ok := n.peers[name]
	if !ok {
		p = &tcpPeer{addr: addr}
		n.peers[name] = p
	}
	n.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addr == addr {
		return
	}
	p.addr = addr
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		n.metrics().Gauge(MetricPeerConns, "peer", name).Dec()
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.closed:
			default:
				n.metrics().Counter(MetricAcceptErrors).Inc()
			}
			return // listener closed
		}
		n.mu.Lock()
		n.accepted[conn] = true
		n.mu.Unlock()
		n.metrics().Gauge(MetricAcceptedConns).Inc()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
		n.metrics().Gauge(MetricAcceptedConns).Dec()
	}()
	r := bufio.NewReader(conn)
	for {
		env, size, err := readFrame(r)
		if err != nil {
			return
		}
		n.metrics().Counter(MetricFrames, "dir", "in").Inc()
		n.metrics().Counter(MetricBytes, "dir", "in").Add(int64(size))
		select {
		case n.inbox <- env:
		case <-n.closed:
			return
		}
	}
}

// Send delivers one frame to the peer, dialing (or reusing) its
// connection. A failed dial or write drops the connection and is retried
// under the node's Options — bounded attempts, exponential backoff with
// jitter, and a fresh dial per attempt — so one dead socket or flaky
// accept does not surface as an error when the peer recovers in time.
// Sends to unknown peers and sends on a closed node fail immediately.
func (n *TCPNode) Send(to, kind string, payload []byte) error {
	frame, err := marshalFrame(Envelope{From: n.name, To: to, Kind: kind, Payload: payload})
	if err != nil {
		return fmt.Errorf("transport: encode frame to %s: %w", to, err)
	}
	var lastErr error
	for attempt := 1; attempt <= n.opts.Attempts; attempt++ {
		if attempt > 1 {
			n.metrics().Counter(MetricSendRetries, "peer", to).Inc()
			if err := n.sleep(n.backoff(attempt - 1)); err != nil {
				return err
			}
		}
		err := n.sendOnce(to, frame, attempt > 1)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
	}
	return lastErr
}

// sendOnce performs a single delivery attempt: resolve the peer, dial
// under the peer's lock if no connection is cached, write the frame
// under a deadline, and on failure evict the connection it was written
// to (never a newer one another goroutine dialed — eviction happens
// under the same per-peer lock the write held).
func (n *TCPNode) sendOnce(to string, frame []byte, redial bool) error {
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	n.mu.Lock()
	p, known := n.peers[to]
	n.mu.Unlock()
	if !known {
		return fmt.Errorf("%s: %w", to, ErrUnknownPeer)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if redial {
			n.metrics().Counter(MetricRedials, "peer", to).Inc()
		}
		conn, err := net.DialTimeout("tcp", p.addr, n.opts.DialTimeout)
		if err != nil {
			n.metrics().Counter(MetricDialErrors, "peer", to).Inc()
			return fmt.Errorf("transport: dial %s (%s): %w", to, p.addr, err)
		}
		select {
		case <-n.closed:
			// Closed while dialing: Close's sweep may already have run,
			// so this connection is ours to release.
			conn.Close()
			return ErrClosed
		default:
		}
		p.conn = conn
		n.metrics().Gauge(MetricPeerConns, "peer", to).Inc()
	}
	conn := p.conn
	if n.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(n.opts.WriteTimeout))
	}
	// Counted before the write: once the bytes are out, the peer may
	// answer — and a reader of the counters see the answer — before Write
	// returns. A failed write also counts in MetricSendErrors.
	n.metrics().Counter(MetricFrames, "dir", "out").Inc()
	n.metrics().Counter(MetricBytes, "dir", "out").Add(int64(len(frame)))
	_, err := conn.Write(frame)
	if err != nil {
		conn.Close()
		p.conn = nil
		n.metrics().Gauge(MetricPeerConns, "peer", to).Dec()
		n.metrics().Counter(MetricSendErrors, "peer", to).Inc()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			n.metrics().Counter(MetricWriteTimeouts, "peer", to).Inc()
		}
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if n.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	return nil
}

// backoff computes the jittered delay before retry n (1-based).
func (n *TCPNode) backoff(attempt int) time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.opts.backoff(attempt, n.rng)
}

// sleep waits d or until the node closes.
func (n *TCPNode) sleep(d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-n.closed:
		return ErrClosed
	}
}

// retryable reports whether a failed attempt is worth re-dialing:
// transient dial and write failures are; unknown peers, closed nodes and
// encoding failures are not.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrUnknownPeer), errors.Is(err, ErrClosed):
		return false
	}
	return true
}

// Recv blocks for the next inbound envelope.
func (n *TCPNode) Recv() (Envelope, error) {
	select {
	case env := <-n.inbox:
		return env, nil
	case <-n.closed:
		return Envelope{}, ErrClosed
	}
}

// RecvTimeout is Recv with a deadline.
func (n *TCPNode) RecvTimeout(d time.Duration) (Envelope, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case env := <-n.inbox:
		return env, nil
	case <-n.closed:
		return Envelope{}, ErrClosed
	case <-timer.C:
		return Envelope{}, fmt.Errorf("recv after %v: %w", d, ErrRecvTimeout)
	}
}

// RecvContext is Recv canceled by the context.
func (n *TCPNode) RecvContext(ctx context.Context) (Envelope, error) {
	select {
	case env := <-n.inbox:
		return env, nil
	case <-n.closed:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close shuts the node down and waits for its goroutines. In-flight
// Sends fail with ErrClosed (including those parked in a retry backoff).
func (n *TCPNode) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.listener.Close()
		n.mu.Lock()
		peers := make([]*tcpPeer, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
		// Close accepted connections too: their readLoops may be blocked
		// mid-frame and must be unblocked before wg.Wait can return.
		for c := range n.accepted {
			c.Close()
		}
		n.mu.Unlock()
		// Peer locks are taken after the node lock is released (lock
		// order: node, then peer; never both).
		for _, p := range peers {
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
		}
	})
	n.wg.Wait()
	return nil
}

// Frame layout: a 4-byte big-endian body length, then the body
//
//	uvarint len(From) | From
//	uvarint len(To)   | To
//	uvarint len(Kind) | Kind
//	Payload             (the rest of the body, verbatim)
//
// Every length is a minimal uvarint, so an envelope has exactly one
// encoding and readFrame rejects any other.
const (
	frameHeader = 4
	maxFrame    = 16 << 20
	// frameChunk bounds how far readFrame allocates ahead of the bytes
	// that have actually arrived.
	frameChunk = 64 << 10
)

// ErrMalformed reports bytes that are not a valid field encoding: a
// length that is not a minimal uvarint, or one that runs past the end of
// its input.
var ErrMalformed = errors.New("transport: malformed field")

// AppendField appends s as one field: its length as a uvarint, then its
// bytes. Frames and the daemon's command codec share the encoding.
func AppendField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// FieldSize is the encoded size of an n-byte field.
func FieldSize(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + n }

// ReadUvarint splits one minimal uvarint off the front of b.
func ReadUvarint(b []byte) (v uint64, rest []byte, err error) {
	v, k := binary.Uvarint(b)
	if k <= 0 || (k > 1 && b[k-1] == 0) {
		return 0, nil, ErrMalformed
	}
	return v, b[k:], nil
}

// ReadField splits one field (see AppendField) off the front of b. The
// field aliases b.
func ReadField(b []byte) (field, rest []byte, err error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrMalformed
	}
	return rest[:n], rest[n:], nil
}

// marshalFrame encodes one envelope into its on-wire frame. Encoding
// once up front lets Send retry the same bytes without re-touching the
// caller's payload.
func marshalFrame(env Envelope) ([]byte, error) {
	size := FieldSize(len(env.From)) + FieldSize(len(env.To)) + FieldSize(len(env.Kind)) + len(env.Payload)
	if size > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	b := make([]byte, frameHeader, frameHeader+size)
	binary.BigEndian.PutUint32(b, uint32(size))
	b = AppendField(b, env.From)
	b = AppendField(b, env.To)
	b = AppendField(b, env.Kind)
	return append(b, env.Payload...), nil
}

// readFrame reads one frame and reports its size on the wire (header +
// body). The body buffer grows with the bytes received, at most
// frameChunk ahead of them, so a header that claims a large frame and
// then stalls pins almost nothing.
func readFrame(r io.Reader) (Envelope, int, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, 0, err
	}
	size := int(binary.BigEndian.Uint32(hdr[:]))
	if size > maxFrame {
		return Envelope{}, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, 0, min(size, frameChunk))
	for len(body) < size {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(size-len(body), len(body)))
		}
		n, err := io.ReadFull(r, body[len(body):min(size, cap(body))])
		body = body[:len(body)+n]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Envelope{}, 0, err
		}
	}
	var head [3][]byte // From, To, Kind
	for i := range head {
		var err error
		if head[i], body, err = ReadField(body); err != nil {
			return Envelope{}, 0, err
		}
	}
	env := Envelope{From: string(head[0]), To: string(head[1]), Kind: string(head[2]), Payload: body}
	return env, frameHeader + size, nil
}
