package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/daemon"
	"jointadmin/internal/logic"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// Workloads.
const (
	wireSteady   = "wire_steady"
	churnInproc  = "churn_inproc"
	durableChurn = "durable_churn"
)

var workloads = []string{wireSteady, churnInproc, durableChurn}

// scale sizes a round in operations, never in seconds: every round of a
// run repeats the same decisions and mutations from a fresh server, so
// the mutation count per decision and the history an Apply sees do not
// depend on how fast the program is.
type scale struct {
	// K is the number of decisions between two mutations (churn).
	K int
	// Mutations is the number of mutations in one churn round.
	Mutations int
	// WireOps is the number of timed calls in one wire round.
	WireOps int
	// Probes is the number of mutations a wire round applies, and times,
	// before its warm-up: wire_steady's apply_p50_ms.
	Probes int
	// WarmPasses is the number of in-order passes over the request pool
	// before timing, so every certificate is cached.
	WarmPasses int
}

var fullScale = scale{K: 1000, Mutations: 6, WireOps: 4000, Probes: 12, WarmPasses: 2}

// walWindow is durable_churn's group-commit window: an append schedules
// one fsync this far ahead and every record written before it rides it.
// The log holds its lock through each fsync, so every fsync stalls the
// decisions appending audit records behind it; at 2 ms a slow spell of
// the shared disk cut durable_churn's throughput by up to 40% for whole
// runs, and 10 ms makes five times fewer of those stalls.
const walWindow = 10 * time.Millisecond

// roundDeadline bounds one round, so a lost reply fails the run instead
// of hanging it.
const roundDeadline = 120 * time.Second

// runner drives one workload over one fixture.
type runner struct {
	workload string
	sc       scale
	fx       *fixture
	seq      []int  // pool indices of one round's timed decisions
	dir      string // parent of durable_churn's per-round WAL directories

	attempted, failed, wrong int64
	firstErr                 error
}

func newRunner(workload string, sc scale, fx *fixture, seed int64, dir string) *runner {
	n := sc.K * sc.Mutations
	if workload == wireSteady {
		n = sc.WireOps
	}
	// Uniform over the pool: the pool already repeats zipf-hot objects
	// and signers, and a second zipf draw here would hand a quarter of
	// all decisions to one pre-signed request, so that a run measured
	// that request more than the program.
	rng := rand.New(rand.NewSource(^seed)) // a stream apart from the fixture's
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(len(fx.pool))
	}
	return &runner{workload: workload, sc: sc, fx: fx, seq: seq, dir: dir}
}

// fail records one failed operation.
func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// check scores one decision of pool entry i against its expected outcome.
func (r *runner) check(i int, allowed bool, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.fail(fmt.Errorf("%s request %d: %w", r.fx.pool[i].Kind, i, err))
	case allowed != r.fx.pool[i].WantAllow:
		r.wrong++
		r.fail(fmt.Errorf("%s request %d on %s: allowed=%v, want %v",
			r.fx.pool[i].Kind, i, r.fx.pool[i].Object, allowed, r.fx.pool[i].WantAllow))
	}
}

// roundStats is what one round measured.
type roundStats struct {
	setup   time.Duration
	window  time.Duration // timed part: decisions, and mutations on churn
	cpu     time.Duration // process CPU over the window
	lat     []time.Duration
	applies []time.Duration
	layers  *layers // nil when the round was not traced
}

// span accumulates the time one layer spent on the calls it served.
type span struct {
	n     int64
	total time.Duration
}

func (s span) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / 1e3 / float64(s.n)
}

// The spans a traced round records, each around one call into a layer.
const (
	spanDecode    = iota // json decode of the shipped request (wire handler)
	spanHandler          // the whole wire handler
	spanResidual         // Authorize calls decided on the residual fast path
	spanFallback         // Authorize calls that fell back to full replay
	spanRender           // Proof.String on a fallback's proof
	spanApply            // Server.Apply
	spanRecompile        // RecompileResiduals on the post-mutation snapshot
	nSpans
)

// layers records where a traced round's time went. The wire handler
// runs on the pipeline's worker goroutine, so access goes through mu.
// A nil *layers records nothing.
type layers struct {
	active atomic.Bool // only the timed window (and wire probes) is recorded

	mu    sync.Mutex
	spans [nSpans]span
	// pending is the proof of the last fallback decision, rendered by
	// the client loop after the decision's latency was taken.
	pending *logic.Proof

	start, end counters
}

func (l *layers) add(id int, d time.Duration) {
	if l == nil || !l.active.Load() {
		return
	}
	l.mu.Lock()
	l.spans[id].n++
	l.spans[id].total += d
	l.mu.Unlock()
}

func (l *layers) setActive(on bool) {
	if l != nil {
		l.active.Store(on)
	}
}

// renderPending times Proof.String on the last fallback's proof.
func (l *layers) renderPending() {
	if l == nil {
		return
	}
	l.mu.Lock()
	p := l.pending
	l.pending = nil
	l.mu.Unlock()
	if p != nil {
		t := time.Now()
		_ = p.String()
		l.add(spanRender, time.Since(t))
	}
}

// counters is a reading of the program's own obs counters and of the Go
// runtime, taken at both ends of a traced window.
type counters struct {
	bytesOut, framesOut     int64
	resends, stale, replays int64
	cacheHits, cacheMisses  int64
	fallbacks, walAppends   int64
	walBytes                int64
	fsync                   obs.HistogramValue
	mallocs                 uint64
	gcCPU, totalCPU         float64
}

// authorize makes one decision. On a traced round it splits the time by
// whether authz_residual_fallbacks_total moved during the call — exact
// with one client — and keeps a fallback's proof for rendering.
func authorize(ctx context.Context, srv *authz.Server, req *authz.AccessRequest, tr *layers, fallbacks *obs.Counter) (bool, string, error) {
	var before int64
	var t0 time.Time
	if tr != nil {
		before = fallbacks.Value()
		t0 = time.Now()
	}
	dec, err := srv.Authorize(ctx, *req)
	if tr != nil {
		d := time.Since(t0)
		if fallbacks.Value() == before {
			tr.add(spanResidual, d)
		} else {
			tr.add(spanFallback, d)
			if dec.Proof != nil && tr.active.Load() {
				tr.mu.Lock()
				tr.pending = dec.Proof
				tr.mu.Unlock()
			}
		}
	}
	switch {
	case err != nil && !dec.Allowed && dec.Reason != "":
		return false, dec.Reason, nil // a denial
	case err != nil:
		return false, "", err
	}
	return dec.Allowed, dec.Reason, nil
}

// decider decides pool entry i once.
type decider func(ctx context.Context, i int) (bool, error)

// wireSide is wire_steady's server pipeline on localhost TCP and its one
// mux client connection.
type wireSide struct {
	node   *transport.TCPNode
	cli    *daemon.Client
	cancel context.CancelFunc
	served chan struct{}
}

// startWire serves srv through daemon.Pipeline on an ephemeral localhost
// port and dials one mux client at it.
func startWire(srv *authz.Server, reg *obs.Registry, tr *layers) (*wireSide, error) {
	node, err := transport.ListenTCP("perfsrv", "127.0.0.1:0", transport.Options{})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	node.Instrument(reg)
	fallbacks := reg.Counter(authz.MetricResidualFallbacks)
	pipe := daemon.NewPipeline(daemon.PipelineConfig{
		Handler: func(ctx context.Context, cmd daemon.Command) daemon.Reply {
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			var req authz.AccessRequest
			if err := json.Unmarshal([]byte(cmd.Data), &req); err != nil {
				return daemon.Reply{Detail: "error: bad request: " + err.Error()}
			}
			if tr != nil {
				tr.add(spanDecode, time.Since(t0))
			}
			allowed, reason, err := authorize(ctx, srv, &req, tr, fallbacks)
			var rep daemon.Reply
			switch {
			case err != nil:
				rep = daemon.Reply{Detail: "error: " + err.Error()}
			case allowed:
				rep = daemon.Reply{OK: true, Detail: "allowed"}
			default:
				rep = daemon.Reply{Detail: "denied: " + reason}
			}
			if tr != nil {
				tr.add(spanHandler, time.Since(t0))
			}
			return rep
		},
		Metrics: reg,
		Tag:     "perfbench",
	})
	ctx, cancel := context.WithCancel(context.Background())
	w := &wireSide{node: node, cancel: cancel, served: make(chan struct{})}
	go func() {
		defer close(w.served)
		_ = pipe.Serve(ctx, node)
	}()
	w.cli, err = daemon.Dial(daemon.ClientConfig{
		ServerAddr: node.Addr(),
		ServerName: "perfsrv",
		Name:       "perfcli",
		Resend:     time.Second,
		Metrics:    reg,
	})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return w, nil
}

func (w *wireSide) decider(fx *fixture) decider {
	return func(ctx context.Context, i int) (bool, error) {
		rep, err := w.cli.Call(ctx, daemon.Command{Cmd: "authorize", Data: fx.wire[i]})
		switch {
		case err != nil:
			return false, err
		case rep.OK:
			return true, nil
		case strings.HasPrefix(rep.Detail, "denied:"):
			return false, nil
		}
		return false, fmt.Errorf("reply %q", rep.Detail)
	}
}

// close stops the client, then the pipeline and listener, and waits for
// the serve loop to return.
func (w *wireSide) close() {
	if w.cli != nil {
		_ = w.cli.Close()
	}
	w.cancel()
	_ = w.node.Close()
	<-w.served
}

// round runs one round: set-up (timed as setup_s), wire probes, warm-up,
// then the timed window. traced rounds also record layers and counters.
func (r *runner) round(n int, traced bool) (rs roundStats, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	defer cancel()
	var tr *layers
	if traced {
		tr = &layers{}
		rs.layers = tr
	}
	reg := obs.NewRegistry()
	fallbacks := reg.Counter(authz.MetricResidualFallbacks)

	runtime.GC() // the previous round's server is garbage now
	start := time.Now()
	srv, err := r.fx.newServer(reg)
	if err != nil {
		return rs, fmt.Errorf("server: %w", err)
	}
	var log *wal.Log
	if r.workload == durableChurn {
		dir := filepath.Join(r.dir, fmt.Sprintf("perfbench-wal-%d-%d", os.Getpid(), n))
		if log, _, err = wal.Open(dir, wal.Options{BatchWindow: walWindow, Metrics: reg}); err != nil {
			return rs, fmt.Errorf("wal: %w", err)
		}
		defer func() {
			if cerr := log.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("wal close: %w", cerr)
			}
			os.RemoveAll(dir)
		}()
		if err := srv.SetJournal(log); err != nil {
			return rs, err
		}
	}
	decide := func(ctx context.Context, i int) (bool, error) {
		allowed, _, err := authorize(ctx, srv, &r.fx.pool[i].Req, tr, fallbacks)
		return allowed, err
	}
	if r.workload == wireSteady {
		w, err := startWire(srv, reg, tr)
		if err != nil {
			return rs, err
		}
		defer w.close()
		decide = w.decider(r.fx)
	}
	rs.setup = time.Since(start)

	applyOne := func(m int) {
		t0 := time.Now()
		err := srv.Apply(ctx, r.fx.mutations[m])
		d := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("mutation %d (%s): %w", m, r.fx.mutations[m].Verb(), err))
		}
		rs.applies = append(rs.applies, d)
		if tr != nil {
			tr.add(spanApply, d)
			t1 := time.Now()
			srv.RecompileResiduals()
			tr.add(spanRecompile, time.Since(t1))
		}
	}
	if r.workload == wireSteady {
		// Probes are recorded whether or not the window is active:
		// they are wire_steady's only mutations.
		tr.setActive(true)
		for m := 0; m < r.sc.Probes; m++ {
			applyOne(m)
		}
		tr.setActive(false)
	}
	for p := 0; p < r.sc.WarmPasses; p++ {
		for i := range r.fx.pool {
			allowed, err := decide(ctx, i)
			r.check(i, allowed, err)
		}
	}

	rs.lat = make([]time.Duration, 0, len(r.seq))
	timed := func(seq []int) {
		for _, i := range seq {
			t0 := time.Now()
			allowed, err := decide(ctx, i)
			rs.lat = append(rs.lat, time.Since(t0))
			r.check(i, allowed, err)
			tr.renderPending()
		}
	}
	runtime.GC()
	if tr != nil {
		tr.start = readCounters(reg, log)
		tr.setActive(true)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	if r.workload == wireSteady {
		timed(r.seq)
	} else {
		for m := 0; m < r.sc.Mutations; m++ {
			applyOne(m)
			timed(r.seq[m*r.sc.K : (m+1)*r.sc.K])
		}
	}
	rs.window = time.Since(t0)
	rs.cpu = cpuTime() - cpu0
	if tr != nil {
		tr.setActive(false)
		tr.end = readCounters(reg, log)
	}
	return rs, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
