package daemon

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// awkward is a Data value JSON would have had to escape: quotes,
// newlines, NUL and bytes that are not UTF-8.
const awkward = "{\"req\":\"a\\\"b\"}\n\x00\xff\xfe tail"

var commandSamples = []Command{
	{},
	{ID: "n-1", Cmd: "read"},
	{ID: "n-2", Cmd: "write", Group: "G_write", Object: "O", Data: awkward, Op: "write", Domain: "D4", Signers: []string{"alice", "bob"}, Delegated: true},
	{Cmd: "sign", Signers: []string{}},
	{Cmd: "read", Signers: []string{"", "carol", strings.Repeat("s", 300)}},
	{Cmd: "authorize", Data: strings.Repeat("x", 5000), Delegated: true},
}

var replySamples = []Reply{
	{},
	{ID: "n-1", OK: true},
	{ID: "n-2", Detail: "denied: \"quoted\"\nnext", Data: awkward},
	{OK: true, Data: strings.Repeat("d", 200)},
}

func TestCommandCodecRoundTrip(t *testing.T) {
	for _, want := range commandSamples {
		got, err := DecodeCommand(EncodeCommand(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got  %#v\n want %#v", got, want)
		}
	}
	// nil and empty Signers stay distinct.
	if got, _ := DecodeCommand(EncodeCommand(Command{})); got.Signers != nil {
		t.Errorf("nil Signers decoded as %#v", got.Signers)
	}
	if got, _ := DecodeCommand(EncodeCommand(Command{Signers: []string{}})); got.Signers == nil {
		t.Error("empty Signers decoded as nil")
	}
}

func TestReplyCodecRoundTrip(t *testing.T) {
	for _, want := range replySamples {
		got, err := DecodeReply(EncodeReply(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip:\n got  %#v\n want %#v", got, want)
		}
	}
}

// TestCodecLayout pins the byte layouts documented in codec.go.
func TestCodecLayout(t *testing.T) {
	got := EncodeCommand(Command{ID: "i", Cmd: "read", Signers: []string{"al"}, Delegated: true})
	want := []byte{1, 'i', 4, 'r', 'e', 'a', 'd', 0, 0, 0, 0, 0, 1, 2, 'a', 'l', flagDelegated | flagSigners}
	if !bytes.Equal(got, want) {
		t.Errorf("command = %v, want %v", got, want)
	}
	got = EncodeReply(Reply{ID: "i", OK: true, Detail: "ok"})
	want = []byte{1, 'i', 2, 'o', 'k', 0, flagOK}
	if !bytes.Equal(got, want) {
		t.Errorf("reply = %v, want %v", got, want)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	cmd := EncodeCommand(commandSamples[2])
	rep := EncodeReply(replySamples[2])
	empty := EncodeCommand(Command{}) // seven empty fields, count 0, flags 0
	commands := map[string][]byte{
		"empty input":          nil,
		"truncated":            cmd[:len(cmd)-1],
		"truncated mid-field":  cmd[:10],
		"trailing byte":        append(bytes.Clone(cmd), 0),
		"field past end":       {200, 'a'},
		"non-minimal length":   append([]byte{0x80, 0x00}, empty[1:]...),
		"signer count too big": append(bytes.Clone(empty[:7]), 0xff, 0xff, 0xff, 0xff, 0x0f, 0),
		"unknown flag bit":     append(bytes.Clone(empty[:8]), 0x04),
		"signers without flag": append(bytes.Clone(empty[:7]), 1, 1, 'a', 0),
	}
	for name, in := range commands {
		if _, err := DecodeCommand(in); err == nil {
			t.Errorf("command %s: accepted", name)
		}
	}
	replies := map[string][]byte{
		"empty input":      nil,
		"truncated":        rep[:len(rep)-1],
		"trailing byte":    append(bytes.Clone(rep), 0),
		"field past end":   {9, 'a'},
		"unknown flag bit": {0, 0, 0, 0x02},
	}
	for name, in := range replies {
		if _, err := DecodeReply(in); err == nil {
			t.Errorf("reply %s: accepted", name)
		}
	}
}

// TestPipelineGarbledCommand: a payload that is not a valid command gets a
// "bad command" reply instead of reaching the handler.
func TestPipelineGarbledCommand(t *testing.T) {
	p := NewPipeline(PipelineConfig{
		Handler: func(context.Context, Command) Reply {
			t.Error("handler ran for a garbled command")
			return Reply{}
		},
	})
	node := newFakeNode(nil)
	garbled := EncodeCommand(Command{ID: "g-1", Cmd: "read"})
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: garbled[:len(garbled)-1]}
	close(node.envs)
	if err := p.Serve(context.Background(), node); err != nil {
		t.Fatal(err)
	}
	raw := node.allReplies("cli")
	if len(raw) != 1 {
		t.Fatalf("replies = %d, want 1", len(raw))
	}
	rep, err := DecodeReply([]byte(raw[0]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || !strings.HasPrefix(rep.Detail, "bad command: ") {
		t.Errorf("reply = %+v, want a bad command error", rep)
	}
}

// TestClientGarbledReplyIsStale: a garbled reply, even one carrying the ID
// of a pending call, is shed and counted as stale; the call still
// completes on the good reply that follows.
func TestClientGarbledReplyIsStale(t *testing.T) {
	net := transport.NewMemory(transport.Faults{})
	defer net.Close()
	srv := net.Endpoint("srv")
	reg := obs.NewRegistry()
	c := NewClient(net.Endpoint("cli"), "srv", "", 0, reg)
	defer c.Close()

	go func() {
		env, err := srv.RecvContext(context.Background())
		if err != nil {
			return
		}
		cmd, err := DecodeCommand(env.Payload)
		if err != nil {
			return
		}
		garbled := append(EncodeReply(Reply{ID: cmd.ID, Detail: "garbled"}), 0) // trailing byte
		_ = srv.Send(env.From, "reply", garbled)
		_ = srv.Send(env.From, "reply", EncodeReply(Reply{ID: cmd.ID, OK: true, Detail: "answered"}))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.Call(ctx, Command{Cmd: "read"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Detail != "answered" {
		t.Errorf("reply = %+v", rep)
	}
	if got := reg.Counter(MetricMuxStale).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricMuxStale, got)
	}
}

// FuzzDecodeCommand: arbitrary bytes never panic the decoder; accepted
// input re-encodes to the same bytes, and truncating it or appending a
// byte makes it invalid.
func FuzzDecodeCommand(f *testing.F) {
	for _, c := range commandSamples {
		f.Add(EncodeCommand(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cmd, err := DecodeCommand(data)
		if err != nil {
			return
		}
		if again := EncodeCommand(cmd); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the bytes:\n in  %x\n out %x", data, again)
		}
		if _, err := DecodeCommand(data[:len(data)-1]); err == nil {
			t.Fatal("accepted truncated input")
		}
		if _, err := DecodeCommand(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("accepted input with a trailing byte")
		}
	})
}

// FuzzDecodeReply is FuzzDecodeCommand for replies.
func FuzzDecodeReply(f *testing.F) {
	for _, r := range replySamples {
		f.Add(EncodeReply(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReply(data)
		if err != nil {
			return
		}
		if again := EncodeReply(rep); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the bytes:\n in  %x\n out %x", data, again)
		}
		if _, err := DecodeReply(data[:len(data)-1]); err == nil {
			t.Fatal("accepted truncated input")
		}
		if _, err := DecodeReply(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("accepted input with a trailing byte")
		}
	})
}
