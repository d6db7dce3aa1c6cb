package transport

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// rawClient speaks the frame protocol directly over a socket, so tests
// can observe exactly which frames the host emits and withhold acks at
// will — the conformance surface a well-behaved Conn never exposes.
type rawClient struct {
	nc net.Conn
	fw frameWriter
	fr *frameReader
}

func dialRaw(t *testing.T, addr string, digest []byte, chunk int, win uint32) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &rawClient{nc: nc, fw: frameWriter{w: nc}, fr: newFrameReader(nc)}
	c.send(t, frame{typ: frameHello, flag: protocolVersion, id: wireChunk(chunk), win: win, data: digest})
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
