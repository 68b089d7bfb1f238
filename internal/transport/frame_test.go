package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// frameSamples are envelopes covering empty, binary and multi-byte-length
// fields.
var frameSamples = []Envelope{
	{},
	{From: "client", To: "coalitiond", Kind: "cmd@127.0.0.1:4000", Payload: []byte("payload")},
	{From: "a", To: "b", Kind: "reply", Payload: []byte{0, 0xff, '"', '\n', 0x80}},
	{From: strings.Repeat("f", 200), To: "t", Kind: strings.Repeat("k", 20000), Payload: bytes.Repeat([]byte{7}, 70000)},
}

func mustFrame(t testing.TB, env Envelope) []byte {
	t.Helper()
	b, err := marshalFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	for _, want := range frameSamples {
		frame := mustFrame(t, want)
		got, size, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("readFrame(%q...): %v", frame[:min(len(frame), 16)], err)
		}
		if size != len(frame) {
			t.Errorf("size = %d, want %d", size, len(frame))
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip of %d-byte frame changed the envelope", len(frame))
		}
	}
}

// TestFrameLayout pins the byte layout documented in the package comment.
func TestFrameLayout(t *testing.T) {
	got := mustFrame(t, Envelope{From: "ab", To: "c", Kind: "", Payload: []byte("xyz")})
	want := []byte{0, 0, 0, 9, 2, 'a', 'b', 1, 'c', 0, 'x', 'y', 'z'}
	if !bytes.Equal(got, want) {
		t.Errorf("frame = %v, want %v", got, want)
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	good := mustFrame(t, frameSamples[1])
	withBody := func(body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	cases := map[string][]byte{
		"truncated header":     good[:3],
		"truncated body":       good[:len(good)-1],
		"oversized frame":      binary.BigEndian.AppendUint32(nil, maxFrame+1),
		"field past body":      withBody(5, 'a', 'b'),
		"non-minimal length":   withBody(0x80, 0x00, 0, 0),
		"overflowing length":   withBody(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"missing kind field":   withBody(1, 'a', 1, 'b'),
		"empty body, no field": withBody(),
	}
	for name, in := range cases {
		if _, _, err := readFrame(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := marshalFrame(Envelope{Payload: make([]byte, maxFrame)}); err == nil {
		t.Error("marshalFrame accepted a frame over maxFrame")
	}
}

// TestReadFrameAllocationFollowsBytes sends a header that claims the
// largest legal frame and then nothing: readFrame must fail without
// allocating anything near the claimed size.
func TestReadFrameAllocationFollowsBytes(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readFrame on a bare header: err = %v, want unexpected EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 256<<10 {
		t.Errorf("bare %d-byte frame header allocated %d bytes, want < 256 KiB", maxFrame, alloc)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader as a stream of
// frames. It must never panic; it accepts the input only if it is a
// whole number of valid frames, and accepted input must re-encode to the
// same bytes. Truncating accepted input, or appending a stray byte, must
// be rejected.
func FuzzReadFrame(f *testing.F) {
	for _, env := range frameSamples[:3] {
		f.Add(mustFrame(f, env))
	}
	f.Add(append(mustFrame(f, frameSamples[1]), mustFrame(f, frameSamples[2])...))
	f.Add([]byte{0, 0, 0, 4, 0x80, 0x00, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		envs, err := readAll(data)
		if err != nil {
			return
		}
		var again []byte
		for _, env := range envs {
			if len(env.From)+len(env.To)+len(env.Kind)+len(env.Payload) > maxFrame {
				t.Fatalf("accepted a frame over maxFrame")
			}
			again = append(again, mustFrame(t, env)...)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the bytes:\n in  %x\n out %x", data, again)
		}
		if len(data) > 0 {
			if _, err := readAll(data[:len(data)-1]); err == nil {
				t.Fatalf("accepted truncated input %x", data[:len(data)-1])
			}
		}
		if _, err := readAll(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatalf("accepted input with a trailing byte")
		}
	})
}

// readAll reads frames through one bufio.Reader, as readLoop does, until
// the input ends cleanly at a frame boundary.
func readAll(data []byte) ([]Envelope, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	var envs []Envelope
	for {
		env, _, err := readFrame(r)
		if err == io.EOF {
			return envs, nil
		}
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
	}
}
