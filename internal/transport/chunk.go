package transport

import "sync"

// chunker chops an incremental serialization into fixed-budget chunks
// and hands each to a blocking send callback — the transport-specific
// delivery (a channel handoff in process, a credit-gated Chunk frame
// over TCP). A ring of swap buffers makes the transfer
// allocation-steady: while the receiver consumes up to depth-1 earlier
// chunks, the sender fills the next ring slot. The TCP sender needs
// only two slots (the socket write returns the buffer synchronously);
// the in-process transport passes chunks by reference through a
// buffered channel, so its ring is sized window+1 — one chunk held by
// the receiver, window-1 queued, one being filled. Chunk boundaries
// depend only on the budget, never on the transport or the ring depth,
// which is what makes frame counts transport- and window-invariant.
//
// Rings are recycled across transfers (release), and a bounded budget
// sizes each slot once, on its first use, so a steady stream of
// transfers allocates no chunk buffers at all.
type chunker struct {
	send   func([]byte) error
	budget int
	ring   *ring
	buf    [][]byte // ring.slots[:depth]
	cur    int
	sent   int
}

// ring is a recyclable set of chunk buffers.
type ring struct{ slots [][]byte }

// maxPooledChunk bounds the budgets whose rings are pre-sized and
// recycled. Larger budgets — notably the unchunked math.MaxInt, whose
// single chunk is the whole document — grow their slots by append and
// leave them to the collector, so the pool never pins a document.
const maxPooledChunk = 64 << 10

var ringPool = sync.Pool{New: func() any { return new(ring) }}

func newChunker(budget int, send func([]byte) error) *chunker {
	return newChunkerDepth(budget, 2, send)
}

// newChunkerDepth builds a chunker whose ring holds depth buffers;
// depth below 2 is raised to 2 (a single buffer could be overwritten
// while the receiver still reads it).
func newChunkerDepth(budget, depth int, send func([]byte) error) *chunker {
	if depth < 2 {
		depth = 2
	}
	w := &chunker{send: send, budget: budget}
	if budget <= maxPooledChunk {
		w.ring = ringPool.Get().(*ring)
	} else {
		w.ring = new(ring)
	}
	if len(w.ring.slots) < depth {
		w.ring.slots = append(w.ring.slots, make([][]byte, depth-len(w.ring.slots))...)
	}
	w.buf = w.ring.slots[:depth]
	return w
}

// release hands the ring back for a later transfer. The caller
// guarantees that the sender has exited and that no chunk of the ring
// is still referenced by a receiver; the chunker is unusable after.
func (w *chunker) release() {
	if w.budget > maxPooledChunk {
		return
	}
	for i := range w.buf {
		w.buf[i] = w.buf[i][:0]
	}
	ringPool.Put(w.ring)
	w.ring, w.buf = nil, nil
}

func (w *chunker) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if slot := w.buf[w.cur]; len(slot) == 0 && cap(slot) < w.budget && w.budget <= maxPooledChunk {
			// An empty slot too small for the budget (new, or recycled
			// from a smaller-budget transfer) is sized once.
			w.buf[w.cur] = make([]byte, 0, w.budget)
		}
		space := w.budget - len(w.buf[w.cur])
		if space == 0 {
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
			continue
		}
		n := min(space, len(p))
		w.buf[w.cur] = append(w.buf[w.cur], p[:n]...)
		p = p[n:]
	}
	return total, nil
}

// flush ships the current chunk (a no-op when empty). The send callback
// blocks while the receiver's credits are exhausted — or fails, halting
// the sender.
func (w *chunker) flush() error {
	chunk := w.buf[w.cur]
	if len(chunk) == 0 {
		return nil
	}
	if err := w.send(chunk); err != nil {
		return err
	}
	w.sent += len(chunk)
	w.cur = (w.cur + 1) % len(w.buf)
	w.buf[w.cur] = w.buf[w.cur][:0]
	return nil
}
