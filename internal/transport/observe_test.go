package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// memTap records every observed frame with copied bytes — the
// reference frame recorder for tests (the real one lives in
// internal/flight).
type memTap struct {
	mu     sync.Mutex
	frames []tappedFrame
}

type tappedFrame struct {
	dir  Dir
	sess uint64
	wire []byte
}

func (m *memTap) Observe(ev Event) {
	if ev.Kind == Failed {
		return
	}
	w := make([]byte, 0, len(ev.Head)+len(ev.Tail))
	w = append(append(w, ev.Head...), ev.Tail...)
	m.mu.Lock()
	m.frames = append(m.frames, tappedFrame{dir: ev.Dir, sess: ev.Sess, wire: w})
	m.mu.Unlock()
}

func (m *memTap) snapshot() []tappedFrame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]tappedFrame(nil), m.frames...)
}

// types returns "dir:type" strings in tap order, the compact shape the
// assertions below grep.
func (m *memTap) types(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, f := range m.snapshot() {
		info, err := DecodeFrame(f.wire)
		if err != nil {
			t.Fatalf("tapped frame does not decode: %v", err)
		}
		out = append(out, f.dir.String()+":"+info.Type)
	}
	return out
}

func hasSeq(got []string, want ...string) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	return i == len(want)
}

// TestTapTCPBothDirections is the observer seam's conformance test on
// the real wire: every frame a session writes or reads is observed, in
// both processes, with wire bytes that decode back to the
// frames the protocol actually exchanged.
func TestTapTCPBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("tap-conformance")
	doc := blob(1000)
	sources := map[string]Source{"f1": &fakeSource{blob: doc, verdict: true}}
	hostTap, clientTap := &memTap{}, &memTap{}

	h := NewHost(ln, HostConfig{Digest: digest, Sources: sources, Observer: hostTap})
	defer h.Close()
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: 256, Observer: clientTap})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Verdict(context.Background(), "f1"); err != nil || !ok {
		t.Fatalf("Verdict = %v, %v", ok, err)
	}
	frag, err := c.Open(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		chunk, err := frag.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	c.Close()
	h.Close() // waits for session goroutines: every host-side tap has fired

	ct := clientTap.types(t)
	if !hasSeq(ct, "out:hello", "in:welcome", "out:verdict_req", "in:verdict", "out:open", "in:begin", "in:chunk", "in:end") {
		t.Fatalf("client tap missed the session lifecycle: %v", ct)
	}
	ht := hostTap.types(t)
	if !hasSeq(ht, "in:hello", "out:welcome", "in:verdict_req", "out:verdict", "in:open", "out:begin", "out:chunk", "out:end") {
		t.Fatalf("host tap missed the session lifecycle: %v", ht)
	}

	// The tapped chunk payloads reassemble to the exact document, and
	// both sides observed the same session trace ID once established.
	var rebuilt []byte
	tid := c.TraceID()
	for _, f := range clientTap.snapshot() {
		info, err := DecodeFrame(f.wire)
		if err != nil {
			t.Fatal(err)
		}
		if info.Type == "chunk" {
			rebuilt = append(rebuilt, info.Data...)
			if f.sess != tid {
				t.Fatalf("chunk tapped under session %#x, want %#x", f.sess, tid)
			}
		}
	}
	if !bytes.Equal(rebuilt, doc) {
		t.Fatalf("tapped chunks rebuild %d bytes, want %d", len(rebuilt), len(doc))
	}
	if !bytes.Equal(rebuilt, got) {
		t.Fatal("tap saw different bytes than the application")
	}
}

// TestDecodeFrameRoundTrip feeds every frame shape through the real
// encoder and back through DecodeFrame.
func TestDecodeFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{typ: frameHello, flag: protocolVersion, id: 4096, win: 32, data: Digest("d")},
		{typ: frameVerdictReq, id: 7, str: "f1"},
		{typ: frameVerdict, id: 7, flag: 1},
		{typ: frameOpen, id: 3, str: "f2"},
		{typ: frameBegin, id: 3, size: 9999, win: 8},
		{typ: frameChunk, id: 3, data: []byte("payload")},
		{typ: frameAck, id: 3, ver: 12},
		{typ: frameEnd, id: 3},
		{typ: frameReject, id: 3, str: "no thanks"},
		{typ: frameRefuse, flag: uint8(RefuseOverCapacity), str: "full"},
	}
	for _, f := range frames {
		var buf bytes.Buffer
		fw := &frameWriter{w: &buf}
		if err := fw.write(f); err != nil {
			t.Fatal(err)
		}
		info, err := DecodeFrame(buf.Bytes())
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if info.Kind != byte(f.typ) || info.Type != FrameTypeName(byte(f.typ)) {
			t.Fatalf("decoded %q (%d), want %q", info.Type, info.Kind, FrameTypeName(byte(f.typ)))
		}
		if info.Stream != f.id || info.Size != f.size || info.Ver != f.ver ||
			info.Win != f.win || info.Flag != f.flag || info.Str != f.str {
			t.Fatalf("fields drifted: %+v vs %+v", info, f)
		}
		if !bytes.Equal(info.Data, f.data) {
			t.Fatalf("data drifted: %q vs %q", info.Data, f.data)
		}
		if info.WireLen != buf.Len() || info.Truncated {
			t.Fatalf("WireLen %d (of %d), truncated %v", info.WireLen, buf.Len(), info.Truncated)
		}
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	if err := fw.write(frame{typ: frameChunk, id: 77, data: blob(1000)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	info, err := DecodeFrame(full[:64])
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || info.Type != "chunk" || info.Stream != 77 {
		t.Fatalf("truncated decode = %+v", info)
	}
	if info.WireLen != len(full) {
		t.Fatalf("WireLen = %d, want %d", info.WireLen, len(full))
	}
}

func TestDecodeFrameGarbage(t *testing.T) {
	cases := map[string][]byte{
		"too short":    {1, 2},
		"zero length":  {0, 0, 0, 0, 0},
		"unknown type": {0, 0, 0, 1, 99},
		"oversize":     {0xff, 0xff, 0xff, 0xff, 8},
		"short fixed":  {0, 0, 0, 2, 8, 1}, // chunk needs a 4-byte id
	}
	for name, b := range cases {
		info, err := DecodeFrame(b)
		if err == nil {
			t.Fatalf("%s decoded: %+v", name, info)
		}
		if name != "too short" && !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: error %v is not ErrCodec", name, err)
		}
	}
}

// TestHostOnErrorClassifies pins the failure events the postmortem
// dumper hangs off: a refused hello and a garbage frame each reach the
// host's observer as a Failed event with a typed error, while a clean
// close reaches it not at all.
func TestHostOnErrorClassifies(t *testing.T) {
	newHost := func(t *testing.T, router Router) (*Host, chan error) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 16)
		h := NewHost(ln, HostConfig{Router: router, Observer: failures(errs)})
		t.Cleanup(func() { h.Close() })
		return h, errs
	}
	digest := Digest("on-error")
	router := &mapRouter{designs: map[string]map[string]Source{
		string(digest): {"f1": &fakeSource{blob: blob(8), verdict: true}},
	}}

	t.Run("refused hello", func(t *testing.T) {
		h, errs := newHost(t, router)
		_, err := Dial(h.Addr().String(), Config{Digest: Digest("some-other-design")})
		var re *RefusedError
		if !errors.As(err, &re) {
			t.Fatalf("dial error %v is not a refusal", err)
		}
		select {
		case err := <-errs:
			if !errors.As(err, &re) {
				t.Fatalf("Failed event carries %v, want a RefusedError", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("refusal never reached the observer")
		}
	})

	t.Run("garbage hello", func(t *testing.T) {
		h, errs := newHost(t, router)
		conn, err := net.Dial("tcp", h.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte{0, 0, 0, 1, 99}) // unknown frame type
		select {
		case err := <-errs:
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("Failed event carries %v, want ErrCodec", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("codec failure never reached the observer")
		}
		conn.Close()
	})

	t.Run("clean close is silent", func(t *testing.T) {
		h, errs := newHost(t, router)
		c, err := Dial(h.Addr().String(), Config{Digest: digest})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		select {
		case err := <-errs:
			t.Fatalf("clean close reported %v", err)
		case <-time.After(200 * time.Millisecond):
		}
	})
}

// failures forwards the error of every Failed event to a channel.
type failures chan error

func (f failures) Observe(ev Event) {
	if ev.Kind == Failed {
		f <- ev.Err
	}
}
