package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"dxml/internal/obs"
)

// rawClient speaks the frame protocol directly over a socket, so tests
// can observe exactly which frames the host emits and withhold acks at
// will — the conformance surface a well-behaved Conn never exposes.
type rawClient struct {
	nc net.Conn
	fw frameWriter
	fr *frameReader
}

// dialRaw dials addr and says hello with the given wire chunk budget and
// window grant, as they travel in the hello frame.
func dialRaw(t *testing.T, addr string, digest []byte, budget, win uint32) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &rawClient{nc: nc, fw: frameWriter{w: nc}, fr: newFrameReader(nc)}
	c.send(t, frame{typ: frameHello, flag: protocolVersion, id: budget, win: win, data: digest})
	if f := c.read(t); f.typ != frameWelcome {
		t.Fatalf("hello answered with frame type %d", f.typ)
	}
	return c
}

func (c *rawClient) send(t *testing.T, f frame) {
	t.Helper()
	if err := c.fw.write(f); err != nil {
		t.Fatalf("raw send: %v", err)
	}
}

func (c *rawClient) read(t *testing.T) frame {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.fr.read()
	if err != nil {
		t.Fatalf("raw read: %v", err)
	}
	return f
}

// drainChunks reads frames until the wire goes quiet for `quiet`,
// returning how many chunk frames arrived (and whether End did). The
// quiet window is what turns "the host must NOT send more" into an
// observable: a host with credit left would have sent within it.
func (c *rawClient) drainChunks(t *testing.T, quiet time.Duration) (chunks int, ended bool) {
	t.Helper()
	for {
		c.nc.SetReadDeadline(time.Now().Add(quiet))
		f, err := c.fr.read()
		if err != nil {
			if isTimeout(err) {
				return chunks, ended
			}
			t.Fatalf("raw drain: %v", err)
		}
		switch f.typ {
		case frameChunk:
			chunks++
		case frameEnd:
			ended = true
		case framePing:
			c.send(t, frame{typ: framePong, id: f.id})
		default:
			t.Fatalf("unexpected frame type %d while draining", f.typ)
		}
	}
}

func windowHost(t *testing.T, sources map[string]Source, cap int) (*Host, []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("window-conformance")
	h := NewHost(ln, HostConfig{Digest: digest, Sources: sources, Window: cap})
	t.Cleanup(func() { h.Close() })
	return h, digest
}

// TestWindowPipelinesExactly pins the credit discipline on the wire:
// with a grant of W and no acks, the host ships exactly W chunks and
// parks; a cumulative ack of k releases exactly k more; re-sending the
// same cumulative ack releases nothing.
func TestWindowPipelinesExactly(t *testing.T) {
	const chunkBudget, win = 64, 4
	src := &fakeSource{blob: blob(chunkBudget * 20), verdict: true}
	h, digest := windowHost(t, map[string]Source{"f1": src}, 0)
	c := dialRaw(t, h.Addr().String(), digest, chunkBudget, win)

	c.send(t, frame{typ: frameOpen, id: 1, str: "f1"})
	begin := c.read(t)
	if begin.typ != frameBegin {
		t.Fatalf("open answered with frame type %d", begin.typ)
	}
	if begin.win != win {
		t.Fatalf("begin echoed window %d, granted %d", begin.win, win)
	}

	const quiet = 150 * time.Millisecond
	if n, ended := c.drainChunks(t, quiet); n != win || ended {
		t.Fatalf("unacked: host shipped %d chunks (ended=%v), window is %d", n, ended, win)
	}
	// Cumulative ack for 2 consumed chunks: exactly 2 credits.
	c.send(t, frame{typ: frameAck, id: 1, ver: 2})
	if n, _ := c.drainChunks(t, quiet); n != 2 {
		t.Fatalf("ack of 2 released %d chunks, want 2", n)
	}
	// The same cumulative ack again must grant nothing.
	c.send(t, frame{typ: frameAck, id: 1, ver: 2})
	if n, _ := c.drainChunks(t, quiet); n != 0 {
		t.Fatalf("duplicated cumulative ack released %d chunks, want 0", n)
	}
	// A stale (lower) ack must grant nothing either.
	c.send(t, frame{typ: frameAck, id: 1, ver: 1})
	if n, _ := c.drainChunks(t, quiet); n != 0 {
		t.Fatalf("stale ack released %d chunks, want 0", n)
	}
	// Ack everything: the remaining 14 chunks and End arrive.
	c.send(t, frame{typ: frameAck, id: 1, ver: 20})
	if n, ended := c.drainChunks(t, quiet); n != 14 || !ended {
		t.Fatalf("final ack: %d chunks (ended=%v), want 14 and End", n, ended)
	}
}

// TestWindowOneIsStopAndWait: a grant of 1 is byte-for-byte the classic
// stop-and-wait wire — one chunk per ack, never two in flight.
func TestWindowOneIsStopAndWait(t *testing.T) {
	const chunkBudget = 64
	src := &fakeSource{blob: blob(chunkBudget * 5), verdict: true}
	h, digest := windowHost(t, map[string]Source{"f1": src}, 0)
	c := dialRaw(t, h.Addr().String(), digest, chunkBudget, 1)

	c.send(t, frame{typ: frameOpen, id: 1, str: "f1"})
	if begin := c.read(t); begin.typ != frameBegin || begin.win != 1 {
		t.Fatalf("begin: type %d win %d, want begin with window 1", begin.typ, begin.win)
	}
	const quiet = 150 * time.Millisecond
	sawEnd := false
	for i := uint64(1); i <= 5; i++ {
		// End is not credit-gated: it rides right behind the final chunk,
		// so it may surface in the same drain.
		n, ended := c.drainChunks(t, quiet)
		sawEnd = sawEnd || ended
		if n != 1 {
			t.Fatalf("chunk %d: %d in flight, stop-and-wait allows 1", i, n)
		}
		c.send(t, frame{typ: frameAck, id: 1, ver: i})
	}
	if n, ended := c.drainChunks(t, quiet); n != 0 || !(sawEnd || ended) {
		t.Fatalf("after final ack: %d extra chunks (end seen=%v), want none and End", n, sawEnd || ended)
	}
}

// TestHostileWindowGrants: a zero grant and an all-ones grant are both
// clamped into [1, maxWindow] — the transfer completes (no deadlock)
// and the begin frame reports the window actually honored. Credits are
// counters, never allocation sizes, so the absurd grant costs nothing.
func TestHostileWindowGrants(t *testing.T) {
	const chunkBudget = 64
	src := &fakeSource{blob: blob(chunkBudget * 3), verdict: true}
	h, digest := windowHost(t, map[string]Source{"f1": src}, 0)

	for _, tc := range []struct {
		name  string
		grant uint32
		want  uint32
	}{
		{"zero", 0, 1},
		{"max", math.MaxUint32, maxWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, h.Addr().String(), digest, chunkBudget, tc.grant)
			c.send(t, frame{typ: frameOpen, id: 1, str: "f1"})
			begin := c.read(t)
			if begin.typ != frameBegin || begin.win != tc.want {
				t.Fatalf("begin: type %d win %d, want window %d", begin.typ, begin.win, tc.want)
			}
			got, acked := 0, uint64(0)
			for got < 3 {
				if f := c.read(t); f.typ == frameChunk {
					got++
					acked++
					c.send(t, frame{typ: frameAck, id: 1, ver: acked})
				}
			}
			if f := c.read(t); f.typ != frameEnd {
				t.Fatalf("transfer under hostile grant did not end cleanly: frame type %d", f.typ)
			}
		})
	}
}

// TestZeroChunkBudgetIsUnchunked: a hello announcing a chunk budget of
// 0, which no conforming client sends, gets the whole fragment in one
// chunk, not an endless run of empty chunks.
func TestZeroChunkBudgetIsUnchunked(t *testing.T) {
	doc := blob(300)
	h, digest := windowHost(t, map[string]Source{"f1": &fakeSource{blob: doc, verdict: true}}, 0)
	c := dialRaw(t, h.Addr().String(), digest, 0, 4)
	c.send(t, frame{typ: frameOpen, id: 1, str: "f1"})
	if f := c.read(t); f.typ != frameBegin {
		t.Fatalf("open answered with frame type %d", f.typ)
	}
	if f := c.read(t); f.typ != frameChunk || !bytes.Equal(f.data, doc) {
		t.Fatalf("frame type %d with %d bytes, want the whole %d-byte fragment in one chunk", f.typ, len(f.data), len(doc))
	}
	if f := c.read(t); f.typ != frameEnd {
		t.Fatalf("frame type %d after the only chunk, want end", f.typ)
	}
}

// TestHostWindowCap: the host's configured cap lowers every grant, and
// the begin frame reports the capped value.
func TestHostWindowCap(t *testing.T) {
	const chunkBudget = 64
	src := &fakeSource{blob: blob(chunkBudget * 10), verdict: true}
	h, digest := windowHost(t, map[string]Source{"f1": src}, 2)
	c := dialRaw(t, h.Addr().String(), digest, chunkBudget, 16)

	c.send(t, frame{typ: frameOpen, id: 1, str: "f1"})
	if begin := c.read(t); begin.typ != frameBegin || begin.win != 2 {
		t.Fatalf("begin: type %d win %d, want capped window 2", begin.typ, begin.win)
	}
	if n, _ := c.drainChunks(t, 150*time.Millisecond); n != 2 {
		t.Fatalf("capped host shipped %d unacked chunks, cap is 2", n)
	}
}

// TestDialRejectsNegativeWindow: a nonsensical window is a typed config
// error before any socket is opened.
func TestDialRejectsNegativeWindow(t *testing.T) {
	_, err := Dial("127.0.0.1:1", Config{Digest: Digest("x"), Chunk: 64, Window: -3})
	if !errors.Is(err, ErrInvalidWindow) {
		t.Fatalf("negative window should fail with ErrInvalidWindow, got %v", err)
	}
}

// TestTCPFragmentDuplicateAck: the exported duplicate-ack seam replays
// the last cumulative ack; the transfer still completes exactly once
// with the same bytes — the sender gained nothing from the replay.
func TestTCPFragmentDuplicateAck(t *testing.T) {
	const chunkBudget = 64
	doc := blob(chunkBudget * 6)
	src := &fakeSource{blob: doc, verdict: true}
	h, digest := windowHost(t, map[string]Source{"f1": src}, 0)
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: chunkBudget, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frag, err := c.Open(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	dup, ok := frag.(interface{ DuplicateAck() error })
	if !ok {
		t.Fatal("TCP fragment does not expose DuplicateAck")
	}
	var got []byte
	for i := 0; ; i++ {
		chunk, err := frag.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
		if i%2 == 0 {
			if err := dup.DuplicateAck(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(got) != len(doc) {
		t.Fatalf("reassembled %d bytes under duplicated acks, want %d", len(got), len(doc))
	}
	for i := range got {
		if got[i] != doc[i] {
			t.Fatalf("byte %d corrupted under duplicated acks", i)
		}
	}
}

// ackTap records the ack frames one side of a session observes, with
// their cumulative counts, and signals each reject frame it sees.
type ackTap struct {
	mu      sync.Mutex
	acks    map[uint32][]uint64 // stream id → cumulative counts, in order
	rejects chan uint32
}

func newAckTap() *ackTap {
	return &ackTap{acks: map[uint32][]uint64{}, rejects: make(chan uint32, 64)}
}

func (a *ackTap) Observe(ev Event) {
	if ev.Kind == Failed {
		return
	}
	info, err := DecodeFrame(append(append([]byte(nil), ev.Head...), ev.Tail...))
	if err != nil {
		return
	}
	switch info.Type {
	case "ack":
		a.mu.Lock()
		a.acks[info.Stream] = append(a.acks[info.Stream], info.Ver)
		a.mu.Unlock()
	case "reject":
		a.rejects <- info.Stream
	}
}

func (a *ackTap) of(id uint32) []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]uint64(nil), a.acks[id]...)
}

// wantAcks is the exact ack sequence a receiver of n chunks at window
// win writes: one cumulative ack per max(1, win/2) consumed chunks.
func wantAcks(n, win int) []uint64 {
	every := max(1, win/2)
	var want []uint64
	for k := every; k <= n; k += every {
		want = append(want, uint64(k))
	}
	return want
}

// TestAckCountByWindow pins the receiver's ack rule exactly: a TCP
// fragment or live snapshot of n chunks, consumed to EOF at window W,
// makes the client write ⌊n/max(1,W/2)⌋ cumulative acks, at every
// max(1,W/2)-th chunk — one ack per chunk at W=1, the stop-and-wait
// wire.
func TestAckCountByWindow(t *testing.T) {
	const chunkBudget, n = 64, 37
	doc := blob(chunkBudget*(n-1) + 5)
	src := newFakeLive(doc, 1)
	h, digest := windowHost(t, map[string]Source{"f1": src}, 0)
	for _, win := range []int{1, 2, 3, 32} {
		t.Run(fmt.Sprintf("window=%d", win), func(t *testing.T) {
			tap := newAckTap()
			c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: chunkBudget, Window: win, Observer: tap})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			want := fmt.Sprint(wantAcks(n, win))

			frag, err := c.Open(context.Background(), "f1")
			if err != nil {
				t.Fatal(err)
			}
			chunks := 0
			for ; ; chunks++ {
				if _, err := frag.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if chunks != n {
				t.Fatalf("fragment: %d chunks, want %d", chunks, n)
			}
			if got := fmt.Sprint(tap.of(frag.(*tcpFragment).id)); got != want {
				t.Fatalf("fragment of %d chunks: acks %s, want %s", n, got, want)
			}

			feed, err := c.Subscribe(context.Background(), "f1")
			if err != nil {
				t.Fatal(err)
			}
			defer feed.Close()
			chunks = 0
			for ; ; chunks++ {
				if _, err := feed.NextChunk(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if chunks != n {
				t.Fatalf("snapshot: %d chunks, want %d", chunks, n)
			}
			if got := fmt.Sprint(tap.of(feed.(*tcpEditFeed).id)); got != want {
				t.Fatalf("snapshot of %d chunks: acks %s, want %s", n, got, want)
			}
		})
	}
}

// TestRejectBeforeAck: a receiver that rejects after consuming k chunks
// has never acked chunk k, at any window and any k. It is checked where
// it matters, at the host: every ack the host read for the stream,
// which includes the cumulative count it held when the reject arrived,
// is below k.
func TestRejectBeforeAck(t *testing.T) {
	const chunkBudget, n = 64, 40
	src := &fakeSource{blob: blob(chunkBudget * n), verdict: true}
	for _, win := range []int{1, 2, 32} {
		t.Run(fmt.Sprintf("window=%d", win), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tap := newAckTap()
			digest := Digest("reject-before-ack")
			h := NewHost(ln, HostConfig{Digest: digest, Sources: map[string]Source{"f1": src}, Observer: tap})
			defer h.Close()
			c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: chunkBudget, Window: win})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for k := 1; k < n; k++ {
				frag, err := c.Open(context.Background(), "f1")
				if err != nil {
					t.Fatal(err)
				}
				for range k {
					if _, err := frag.Next(); err != nil {
						t.Fatal(err)
					}
				}
				frag.Abort()
				id := frag.(*tcpFragment).id
				select {
				case got := <-tap.rejects:
					if got != id {
						t.Fatalf("host read a reject for stream %d, want %d", got, id)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("k=%d: the host never read the reject", k)
				}
				acks := tap.of(id)
				if len(acks) > 0 && acks[len(acks)-1] >= uint64(k) {
					t.Fatalf("k=%d: the host read acks %v before the reject, one covering the rejected chunk", k, acks)
				}
				if want := fmt.Sprint(wantAcks(k-1, win)); fmt.Sprint(acks) != want {
					t.Fatalf("k=%d: host read acks %v, want %s", k, acks, want)
				}
			}
		})
	}
}

// TestBatchedSendObserved: chunks go out one vectored write per credit
// grant, and the observer still sees each chunk frame once, in order,
// as exactly the bytes write encodes for it; the host's chunk counters
// count chunks, not writes. The sent count matches the chunk count, and
// every ack the receiver writes is counted: a delivered stream stays
// registered until its last ack, ⌊N/t⌋·t with t = max(1, W/2), so the
// acked count is exactly that and the RTT histogram holds one sample
// per ack, ⌊N/t⌋. An unchunked transfer is one chunk.
func TestBatchedSendObserved(t *testing.T) {
	doc := blob(100*49 + 33)
	for _, tc := range []struct {
		name   string
		budget int
	}{{"budget=100", 100}, {"unchunked", math.MaxInt}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, win := range []int{1, 4, 32} {
				t.Run(fmt.Sprintf("window=%d", win), func(t *testing.T) {
					testBatchedSend(t, doc, tc.budget, win)
				})
			}
		})
	}
}

func testBatchedSend(t *testing.T, doc []byte, budget, win int) {
	n := (len(doc)-1)/min(budget, len(doc)) + 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap, hostObs := &memTap{}, obs.New()
	digest := Digest("batched-send")
	h := NewHost(ln, HostConfig{Digest: digest, Sources: map[string]Source{"f1": &fakeSource{blob: doc, verdict: true}},
		Observer: tap, Obs: hostObs})
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: budget, Window: win})
	if err != nil {
		t.Fatal(err)
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
	// The last ack went out before EOF; a verdict round trip behind it
	// on the same session means the host has read it.
	if _, err := c.Verdict(context.Background(), "f1"); err != nil {
		t.Fatal(err)
	}
	id := frag.(*tcpFragment).id
	c.Close()
	h.Close() // waits for the session: every counter and event is in

	var chunks, off int
	for _, f := range tap.snapshot() {
		info, err := DecodeFrame(f.wire)
		if err != nil {
			t.Fatal(err)
		}
		if f.dir != Out || info.Type != "chunk" {
			continue
		}
		want := nextChunk(doc, off, budget)
		if info.Stream != id || !bytes.Equal(info.Data, want) {
			t.Fatalf("chunk frame %d: stream %d, %d bytes; want stream %d, bytes %d..%d of the document",
				chunks, info.Stream, len(info.Data), id, off, off+len(want))
		}
		var unbatched bytes.Buffer
		fw := frameWriter{w: &unbatched}
		if err := fw.write(frame{typ: frameChunk, id: id, data: want}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.wire, unbatched.Bytes()) {
			t.Fatalf("chunk frame %d: observed % x…, write encodes % x…", chunks, f.wire[:chunkHeaderSize], unbatched.Bytes()[:chunkHeaderSize])
		}
		chunks++
		off += len(want)
	}
	if chunks != n || off != len(doc) {
		t.Fatalf("observer saw %d chunk frames of %d bytes, want %d of %d", chunks, off, n, len(doc))
	}
	if sent := hostObs.Counter(obs.CChunksSent); sent != int64(n) {
		t.Fatalf("CChunksSent = %d, want %d", sent, n)
	}
	every := max(1, win/2)
	if acked, want := hostObs.Counter(obs.CChunksAcked), int64(n/every*every); acked != want {
		t.Fatalf("CChunksAcked = %d, want %d", acked, want)
	}
	if rtts, want := hostObs.Snapshot(obs.HChunkRTTNs).Count, int64(n/every); rtts != want {
		t.Fatalf("chunk-RTT histogram holds %d samples, want %d", rtts, want)
	}
	if got := hostObs.Snapshot(obs.HChunkBytes); got.Count != int64(n) || got.Sum != int64(len(doc)) {
		t.Fatalf("chunk-bytes histogram holds %d samples of %d bytes, want %d of %d", got.Count, got.Sum, n, len(doc))
	}
}
