package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"dxml/internal/obs"
)

// decodeSpans parses one side's JSONL trace stream.
func decodeSpans(t *testing.T, buf *bytes.Buffer) []obs.Span {
	t.Helper()
	var spans []obs.Span
	dec := json.NewDecoder(buf)
	for {
		var s obs.Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans
		} else if err != nil {
			t.Fatalf("bad JSONL span: %v", err)
		}
		spans = append(spans, s)
	}
}

// TestStitchedTrace is the cross-process observability contract: the
// client mints a trace ID at Dial, the hello carries it to the host,
// and both sides' JSONL span streams tag every lifecycle span with it —
// so one fragment's timeline (hello → open → chunks → verdict) stitches
// across the two processes of a session from their two trace files.
func TestStitchedTrace(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("stitched-trace")
	sources := map[string]Source{"f1": &fakeSource{blob: blob(4096), verdict: true}}

	var hostJSONL, clientJSONL bytes.Buffer
	hostObs, clientObs := obs.New(), obs.New()
	hostLog, clientLog := obs.NewTraceLog(&hostJSONL), obs.NewTraceLog(&clientJSONL)
	hostObs.SetTrace(hostLog)
	clientObs.SetTrace(clientLog)

	h := NewHost(ln, HostConfig{Digest: digest, Sources: sources, Obs: hostObs})
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: 256, Obs: clientObs})
	if err != nil {
		t.Fatal(err)
	}
	tid := c.TraceID()
	if tid == 0 {
		t.Fatal("client minted a zero trace ID")
	}

	if ok, err := c.Verdict(context.Background(), "f1"); err != nil || !ok {
		t.Fatalf("Verdict = %v, %v", ok, err)
	}
	frag, err := c.Open(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := frag.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	h.Close() // waits for the session goroutines, so every span is emitted
	hostLog.Flush()
	clientLog.Flush()

	want := []string{"hello", "open", "chunks", "verdict"}
	for side, buf := range map[string]*bytes.Buffer{"host": &hostJSONL, "client": &clientJSONL} {
		spans := decodeSpans(t, buf)
		names := map[string]bool{}
		for _, s := range spans {
			if s.Trace != tid {
				t.Fatalf("%s span %q has trace %#x, want the session's %#x", side, s.Name, s.Trace, tid)
			}
			if s.End < s.Start {
				t.Fatalf("%s span %q ends before it starts (%d < %d)", side, s.Name, s.End, s.Start)
			}
			names[s.Name] = true
		}
		for _, n := range want {
			if !names[n] {
				t.Fatalf("%s trace has no %q span (got %v)", side, n, names)
			}
		}
	}
}

// TestTraceIDRoundTrip pins the v5 hello wiring in isolation: the
// host's sessions adopt exactly the ID the client minted.
func TestTraceIDRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("trace-id")
	hostObs := obs.New()
	hostObs.SetTrace(obs.NewTraceLog(nil))
	h := NewHost(ln, HostConfig{Digest: digest,
		Sources: map[string]Source{"f1": &fakeSource{blob: blob(64), verdict: true}},
		Obs:     hostObs})
	defer h.Close()
	c, err := Dial(h.Addr().String(), Config{Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	tid := c.TraceID()
	c.Close()
	h.Close()
	for _, s := range hostObs.Trace().Spans() {
		if s.Trace != tid {
			t.Fatalf("host adopted trace %#x, client minted %#x", s.Trace, tid)
		}
	}
	if hostObs.Trace().Total() == 0 {
		t.Fatal("host emitted no spans (hello span missing)")
	}
}

// ringTap is the bench's stand-in for the flight recorder's ring: it
// copies every observed frame into a fixed set of reusable slots. It
// lives here because transport cannot import internal/flight (cycle),
// but it performs the same work — copy head+tail into a bounded buffer
// under a lock — so the "recording" bench variant prices the real seam.
type ringTap struct {
	mu    sync.Mutex
	slots [64][]byte
	n     uint64
}

func (r *ringTap) Observe(ev Event) {
	r.mu.Lock()
	i := r.n % uint64(len(r.slots))
	buf := r.slots[i][:0]
	buf = append(buf, ev.Head...)
	buf = append(buf, ev.Tail...)
	r.slots[i] = buf
	r.n++
	r.mu.Unlock()
}

// TestFrameCountsMatch: each end counts every frame it writes once in
// CFramesEncoded, batched chunk frames included, and every frame it
// reads once in CFramesDecoded. So over one Pipe, with the heartbeat off,
// the host's encoded count equals the client's decoded count and the
// client's encoded count equals the host's decoded count — after a
// delivered round, a round rejected mid-transfer, and a live
// subscription.
func TestFrameCountsMatch(t *testing.T) {
	const chunk, chunks = 64, 21
	src := newFakeLive(blob(chunk*(chunks-1)+7), 1)
	hostObs, clientObs := obs.New(), obs.New()
	digest := Digest("frame-counts")
	c, err := Pipe(HostConfig{Digest: digest, Sources: map[string]Source{"f1": src}, Obs: hostObs},
		Config{Digest: digest, Chunk: chunk, Heartbeat: -1, Obs: clientObs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// A verdict round trip behind a round's last frame: the host answers
	// it only after the write it may be in the middle of.
	roundTrip := func() {
		t.Helper()
		if _, err := c.Verdict(ctx, "f1"); err != nil {
			t.Fatal(err)
		}
	}

	frag, err := c.Open(ctx, "f1")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := frag.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()

	frag, err = c.Open(ctx, "f1")
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := frag.Next(); err != nil {
			t.Fatal(err)
		}
	}
	frag.Abort()
	roundTrip()

	feed, err := c.Subscribe(ctx, "f1")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := feed.NextChunk(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	src.publish(EditFrame{Version: 2, Op: 1, Addr: []uint64{1}, Doc: []byte("<a/>")})
	src.publish(EditFrame{Version: 3, Op: 2, Addr: []uint64{1}})
	for range 2 {
		e, err := feed.NextEdit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := feed.SendVerdict(e.Version, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := feed.Close(); err != nil {
		t.Fatal(err)
	}
	roundTrip()
	c.Close() // waits for the host side: every count is in

	hostEnc, clientDec := hostObs.Counter(obs.CFramesEncoded), clientObs.Counter(obs.CFramesDecoded)
	if hostEnc != clientDec {
		t.Errorf("host encoded %d frames, client decoded %d", hostEnc, clientDec)
	}
	if hostEnc < 2*chunks {
		t.Errorf("host encoded %d frames, fewer than the %d chunk frames of the delivered round and the snapshot", hostEnc, 2*chunks)
	}
	if clientEnc, hostDec := clientObs.Counter(obs.CFramesEncoded), hostObs.Counter(obs.CFramesDecoded); clientEnc != hostDec {
		t.Errorf("client encoded %d frames, host decoded %d", clientEnc, hostDec)
	}
}

// benchChunkPath drives the wire's chunk hot path — session.sendChunks,
// the one vectored write shipCredited makes per credit grant, with its
// per-chunk telemetry, onto a real TCP conn — at window 32, under a
// given collector and observer. One op is one 4 KiB chunk; chunks go out
// in batches of 32, as a sender with a full window's credit sends them.
// With c == nil this is the no-op sink the overhead gate compares
// against; the nil-observer variants must stay at 0 allocs/op.
func benchChunkPath(b *testing.B, c *obs.Collector, ob Observer) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, conn)
		conn.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	const chunk, win = 4096, 32
	s := &session{budget: chunk}
	s.init(conn, DefaultTimeout, c)
	s.observeAs(ob, 0)
	st := newHostStream(nil, "f1")
	if c != nil {
		// As shipCredited: the RTT ring exists only when instrumented.
		st.sendNs = make([]atomic.Int64, win)
	}
	doc := blob(chunk * win)
	batch := func(n int) {
		if _, err := s.sendChunks(1, st, doc, 0, n, st.sentChunks); err != nil {
			b.Fatal(err)
		}
	}
	batch(win) // grows the session's batch scratch, once
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += win {
		batch(min(win, b.N-done))
	}
	b.StopTimer()
	conn.Close()
	<-drained
}

// BenchmarkObsOverhead is the telemetry overhead gate: the instrumented
// chunk path against the no-op sink, both allocation-free with a nil
// observer. CI compares the throughputs and fails the build if
// instrumentation costs more than a few percent, or if either
// nil-observer path allocates. The "recording" variant additionally
// prices the observer seam live — copying every frame into a bounded ring —
// and is reported for EXPERIMENTS.md, not gated.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("noop", func(b *testing.B) { benchChunkPath(b, nil, nil) })
	b.Run("instrumented", func(b *testing.B) { benchChunkPath(b, obs.New(), nil) })
	b.Run("recording", func(b *testing.B) { benchChunkPath(b, obs.New(), &ringTap{}) })
}
