package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a test Source: a fixed byte blob with a fixed verdict.
type fakeSource struct {
	blob    []byte
	verdict bool
	slow    bool // write the blob in many small pieces
}

func (s *fakeSource) Verdict(ctx context.Context) bool { return s.verdict }

func (s *fakeSource) Serialize(w io.Writer) error {
	step := len(s.blob)
	if s.slow {
		step = 8
	}
	for off := 0; off < len(s.blob); off += step {
		if _, err := w.Write(s.blob[off:min(off+step, len(s.blob))]); err != nil {
			return err
		}
	}
	return nil
}

func blob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

// eachTransport runs a conformance test against both implementations,
// so the in-process reference and the TCP wire cannot drift apart.
func eachTransport(t *testing.T, sources map[string]Source, chunk int, run func(t *testing.T, s Session)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		run(t, &InProc{Sources: sources, Chunk: chunk})
	})
	t.Run("tcp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		digest := Digest("conformance")
		h := NewHost(ln, HostConfig{Digest: digest, Sources: sources})
		defer h.Close()
		c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, c)
	})
}

func TestSessionStreamsFragment(t *testing.T) {
	doc := blob(1000)
	sources := map[string]Source{"f1": &fakeSource{blob: doc, verdict: true}}
	eachTransport(t, sources, 64, func(t *testing.T, s Session) {
		frag, err := s.Open(context.Background(), "f1")
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		frames := 0
		for {
			chunk, err := frag.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(chunk) > 64 {
				t.Fatalf("chunk of %d bytes exceeds the 64-byte budget", len(chunk))
			}
			frames++
			got = append(got, chunk...)
		}
		if !bytes.Equal(got, doc) {
			t.Fatalf("reassembled %d bytes, want %d", len(got), len(doc))
		}
		if want := (len(doc) + 63) / 64; frames != want {
			t.Fatalf("%d frames, want %d", frames, want)
		}
		if frag.Size() != len(doc) {
			t.Fatalf("Size = %d, want %d", frag.Size(), len(doc))
		}
	})
}

func TestSessionVerdicts(t *testing.T) {
	sources := map[string]Source{
		"good": &fakeSource{blob: blob(10), verdict: true},
		"bad":  &fakeSource{blob: blob(10), verdict: false},
	}
	eachTransport(t, sources, 64, func(t *testing.T, s Session) {
		// Concurrent verdicts multiplex over one session.
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := s.Verdict(context.Background(), "good"); err != nil || !v {
					errs <- fmt.Errorf("good: v=%v err=%v", v, err)
				}
				if v, err := s.Verdict(context.Background(), "bad"); err != nil || v {
					errs <- fmt.Errorf("bad: v=%v err=%v", v, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if _, err := s.Verdict(context.Background(), "nope"); err == nil {
			t.Error("verdict for unknown docking point should fail")
		}
	})
}

// chunkTap counts the chunk payload bytes a host writes.
type chunkTap struct{ bytes atomic.Int64 }

func (c *chunkTap) Observe(ev Event) {
	if ev.Dir == Out && len(ev.Head) > 4 && frameType(ev.Head[4]) == frameChunk {
		c.bytes.Add(int64(len(ev.Head) + len(ev.Tail) - 9))
	}
}

// closeGate admits every stream and reports each CloseStream, the
// host's signal that an admitted stream has ended.
type closeGate struct{ closed chan string }

func (g *closeGate) OpenStream(fn string) error { return nil }
func (g *closeGate) CloseStream(fn string)      { g.closed <- fn }

// gateRouter routes every session to one design's sources behind one
// gate.
type gateRouter struct {
	sources map[string]Source
	gate    Gate
}

func (r gateRouter) Route(digest []byte) (Route, error) {
	return Route{Sources: r.sources, Gate: r.gate}, nil
}

// TestSessionAbortHaltsSender is the mid-transfer rejection guarantee:
// after Abort, the host ends the stream — its admission slot comes back
// at once — and the chunk bytes it wrote stop within one credit window
// of what the receiver consumed, far short of the document, over TCP
// and over a Pipe alike.
func TestSessionAbortHaltsSender(t *testing.T) {
	const size, chunkBudget, win, consumed = 100_000, 128, 4, 3
	src := &fakeSource{blob: blob(size), verdict: true}
	for _, wire := range []string{"tcp", "pipe"} {
		t.Run(wire, func(t *testing.T) {
			gate := &closeGate{closed: make(chan string, 1)} // one stream, released once
			tap := &chunkTap{}
			hcfg := HostConfig{Router: gateRouter{sources: map[string]Source{"f1": src}, gate: gate}, Observer: tap}
			cfg := Config{Digest: Digest("abort"), Chunk: chunkBudget, Window: win}
			var c *Conn
			var err error
			if wire == "pipe" {
				c, err = Pipe(hcfg, cfg)
			} else {
				ln, lerr := net.Listen("tcp", "127.0.0.1:0")
				if lerr != nil {
					t.Fatal(lerr)
				}
				h := NewHost(ln, hcfg)
				defer h.Close()
				c, err = Dial(h.Addr().String(), cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			frag, err := c.Open(context.Background(), "f1")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < consumed; i++ {
				if _, err := frag.Next(); err != nil {
					t.Fatal(err)
				}
			}
			frag.Abort()
			select {
			case <-gate.closed:
			case <-time.After(5 * time.Second):
				t.Fatal("host stream still open long after the reject")
			}
			n := tap.bytes.Load()
			if limit := int64((consumed + win) * chunkBudget); n > limit || n >= size/10 {
				t.Errorf("host wrote %d chunk bytes of %d after an abort at %d consumed chunks (limit %d)",
					n, size, consumed, limit)
			}
		})
	}
}

// versionedSource advances one shared version counter on every Size
// and Serialize call, and every version has a different length: a wire
// that announced a fragment's size from another call than the one
// whose bytes it shipped would announce a version it never shipped.
type versionedSource struct {
	mu      sync.Mutex
	version int
	shipped int // length of the version Serialize last wrote
}

func (s *versionedSource) next() []byte {
	s.version++
	return blob(1000 + 37*s.version)
}

func (s *versionedSource) Verdict(ctx context.Context) bool { return true }

func (s *versionedSource) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.next())
}

func (s *versionedSource) Serialize(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := s.next()
	s.shipped = len(doc)
	_, err := w.Write(doc)
	return err
}

// TestAnnouncedSizeIsShippedBytes: a fragment's announced size is the
// length of the bytes it ships, on every wire — a fully delivered
// transfer delivers exactly Size() bytes, and on an aborted one the
// saved bytes (Size() minus delivered, as Stats.BytesSaved counts them)
// plus the delivered bytes make up the shipped version exactly.
func TestAnnouncedSizeIsShippedBytes(t *testing.T) {
	const chunkBudget = 64
	src := &versionedSource{}
	sources := map[string]Source{"f1": src}
	digest := Digest("versioned")
	cfg := Config{Digest: digest, Chunk: chunkBudget}
	sessions := map[string]func(t *testing.T) Session{
		"inproc": func(t *testing.T) Session { return &InProc{Sources: sources, Chunk: chunkBudget} },
		"pipe": func(t *testing.T) Session {
			c, err := Pipe(HostConfig{Digest: digest, Sources: sources}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"tcp": func(t *testing.T) Session {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			h := NewHost(ln, HostConfig{Digest: digest, Sources: sources})
			t.Cleanup(func() { h.Close() })
			c, err := Dial(h.Addr().String(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, open := range sessions {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			for _, abortAfter := range []int{-1, 2} {
				frag, err := s.Open(context.Background(), "f1")
				if err != nil {
					t.Fatal(err)
				}
				delivered := 0
				for i := 0; i != abortAfter; i++ {
					chunk, err := frag.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					delivered += len(chunk)
				}
				if abortAfter >= 0 {
					frag.Abort()
				}
				saved := frag.Size() - delivered
				src.mu.Lock()
				shipped := src.shipped
				src.mu.Unlock()
				if abortAfter < 0 && saved != 0 {
					t.Errorf("full transfer: Size() = %d, delivered %d bytes", frag.Size(), delivered)
				}
				if saved+delivered != shipped {
					t.Errorf("abort after %d chunks: saved %d + delivered %d, the shipped version has %d bytes",
						abortAfter, saved, delivered, shipped)
				}
			}
		})
	}
}

// blockingSource parks in Verdict until its context dies, recording
// that the cancellation actually reached it.
type blockingSource struct {
	entered  chan struct{}
	canceled chan struct{}
}

func (s *blockingSource) Verdict(ctx context.Context) bool {
	close(s.entered)
	<-ctx.Done()
	close(s.canceled)
	return false
}
func (s *blockingSource) Serialize(w io.Writer) error { return nil }

// TestVerdictCancelPropagates pins the short-circuit guarantee across
// the wire: canceling a Verdict call must stop the remote validation
// mid-document (a verdict-cancel frame over TCP, the shared context in
// process), not let it run to completion.
func TestVerdictCancelPropagates(t *testing.T) {
	src := &blockingSource{entered: make(chan struct{}), canceled: make(chan struct{})}
	sources := map[string]Source{"f1": src}
	eachTransport(t, sources, 64, func(t *testing.T, s Session) {
		if src.entered == nil || isClosed(src.entered) {
			// eachTransport runs twice; re-arm the source.
			src = &blockingSource{entered: make(chan struct{}), canceled: make(chan struct{})}
			sources["f1"] = src
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := s.Verdict(ctx, "f1")
			done <- err
		}()
		<-src.entered
		cancel()
		if err := <-done; err == nil {
			t.Fatal("canceled verdict returned nil error")
		}
		select {
		case <-src.canceled:
		case <-time.After(5 * time.Second):
			t.Fatal("cancellation never reached the hosted peer; it would validate to completion")
		}
	})
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestSessionOpenUnknown(t *testing.T) {
	eachTransport(t, map[string]Source{}, 64, func(t *testing.T, s Session) {
		if _, err := s.Open(context.Background(), "ghost"); err == nil {
			t.Error("open of unknown docking point should fail")
		}
	})
}

func TestTCPHelloDigestMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(ln, HostConfig{Digest: Digest("design A"), Sources: map[string]Source{}})
	defer h.Close()
	_, err = Dial(h.Addr().String(), Config{Digest: Digest("design B"), Chunk: 64})
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("mismatched digests should fail the hello, got %v", err)
	}
	// The refusal is typed on the wire, not a generic session error: it
	// unwraps to ErrUnknownDesign (and not to ErrOverCapacity).
	if !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("digest mismatch should unwrap to ErrUnknownDesign, got %v", err)
	}
	if errors.Is(err, ErrOverCapacity) {
		t.Errorf("digest mismatch must not read as a capacity refusal: %v", err)
	}
	// And a matching one succeeds on the same host.
	c, err := Dial(h.Addr().String(), Config{Digest: Digest("design A"), Chunk: 64})
	if err != nil {
		t.Fatalf("matching digest refused: %v", err)
	}
	c.Close()
}

// mapRouter is a test Router: a static digest→sources table with an
// optional session cap, counting routed sessions and refusals.
type mapRouter struct {
	mu      sync.Mutex
	designs map[string]map[string]Source
	cap     int
	active  int
	routed  int
	refused int
}

func (r *mapRouter) Route(digest []byte) (Route, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	srcs, ok := r.designs[string(digest)]
	if !ok {
		r.refused++
		return Route{}, &RefusedError{Code: RefuseUnknownDesign, Reason: "no such design registered"}
	}
	if r.cap > 0 && r.active >= r.cap {
		r.refused++
		return Route{}, &RefusedError{Code: RefuseOverCapacity, Reason: "session cap reached"}
	}
	r.active++
	r.routed++
	return Route{Sources: srcs, Close: func() {
		r.mu.Lock()
		r.active--
		r.mu.Unlock()
	}}, nil
}

// TestRoutingHostMultiTenant pins the multi-tenant seam at the
// transport level: one listener, two designs, sessions routed by their
// hello digest; an unknown digest and an over-capacity hello are
// refused with typed errors, never a hang.
func TestRoutingHostMultiTenant(t *testing.T) {
	dA, dB := Digest("tenant A"), Digest("tenant B")
	router := &mapRouter{designs: map[string]map[string]Source{
		string(dA): {"f1": &fakeSource{blob: []byte("AAAA"), verdict: true}},
		string(dB): {"f1": &fakeSource{blob: []byte("BBBBBBBB"), verdict: false}},
	}, cap: 2}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(ln, HostConfig{Router: router})
	defer h.Close()

	read := func(c *Conn) []byte {
		t.Helper()
		frag, err := c.Open(context.Background(), "f1")
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for {
			chunk, err := frag.Next()
			if err == io.EOF {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, chunk...)
		}
	}

	cA, err := Dial(h.Addr().String(), Config{Digest: dA, Chunk: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	cB, err := Dial(h.Addr().String(), Config{Digest: dB, Chunk: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()

	// Each session sees its own tenant's document and verdict.
	if got := read(cA); string(got) != "AAAA" {
		t.Errorf("tenant A read %q", got)
	}
	if got := read(cB); string(got) != "BBBBBBBB" {
		t.Errorf("tenant B read %q", got)
	}
	if v, err := cA.Verdict(context.Background(), "f1"); err != nil || !v {
		t.Errorf("tenant A verdict: v=%v err=%v", v, err)
	}
	if v, err := cB.Verdict(context.Background(), "f1"); err != nil || v {
		t.Errorf("tenant B verdict: v=%v err=%v", v, err)
	}

	// A third concurrent session trips the cap with a typed refusal.
	if _, err := Dial(h.Addr().String(), Config{Digest: dA, Chunk: 64}); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("over-capacity hello should unwrap to ErrOverCapacity, got %v", err)
	}
	// An unregistered design is refused with ErrUnknownDesign.
	if _, err := Dial(h.Addr().String(), Config{Digest: Digest("tenant C"), Chunk: 64}); !errors.Is(err, ErrUnknownDesign) {
		t.Errorf("unknown design should unwrap to ErrUnknownDesign, got %v", err)
	}

	// Closing a session releases its slot: the next hello is admitted.
	cB.Close()
	waitCond(t, func() bool { router.mu.Lock(); defer router.mu.Unlock(); return router.active == 1 })
	cC, err := Dial(h.Addr().String(), Config{Digest: dA, Chunk: 64})
	if err != nil {
		t.Fatalf("slot released by close still refused: %v", err)
	}
	cC.Close()
	router.mu.Lock()
	routed, refused := router.routed, router.refused
	router.mu.Unlock()
	if routed != 3 || refused != 2 {
		t.Errorf("routed=%d refused=%d, want 3 and 2", routed, refused)
	}
}

// waitCond polls a condition with a deadline — session teardown on the
// host side trails the client's Close by a scheduling beat.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPHostCloseFailsSessions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("x")
	src := &fakeSource{blob: blob(10_000), verdict: true, slow: true}
	h := NewHost(ln, HostConfig{Digest: digest, Sources: map[string]Source{"f1": src}})
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frag, err := c.Open(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frag.Next(); err != nil {
		t.Fatal(err)
	}
	h.Close()
	for {
		if _, err := frag.Next(); err != nil {
			if err == io.EOF {
				t.Fatal("stream ended cleanly despite host shutdown")
			}
			break
		}
	}
}

func TestMultiRoutesAndCloses(t *testing.T) {
	a := &InProc{Sources: map[string]Source{"f1": &fakeSource{blob: blob(10), verdict: true}}, Chunk: 8}
	b := &InProc{Sources: map[string]Source{"f2": &fakeSource{blob: blob(10), verdict: false}}, Chunk: 8}
	m := Multi{"f1": a, "f2": b}
	if v, err := m.Verdict(context.Background(), "f1"); err != nil || !v {
		t.Fatalf("f1: v=%v err=%v", v, err)
	}
	if v, err := m.Verdict(context.Background(), "f2"); err != nil || v {
		t.Fatalf("f2: v=%v err=%v", v, err)
	}
	if _, err := m.Verdict(context.Background(), "f3"); err == nil {
		t.Error("unrouted docking point should fail")
	}
	if _, err := m.Open(context.Background(), "f3"); err == nil {
		t.Error("unrouted open should fail")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDigestDistinguishesParts(t *testing.T) {
	if bytes.Equal(Digest("ab", "c"), Digest("a", "bc")) {
		t.Error("digest must be injective over part boundaries")
	}
	if !bytes.Equal(Digest("a", "b"), Digest("a", "b")) {
		t.Error("digest must be deterministic")
	}
}
