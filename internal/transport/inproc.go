package transport

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dxml/internal/obs"
)

// InProc is the in-process wire for one-shot rounds only: verdict
// requests and fragment transfers between a kernel peer and resource
// peers that share an address space. Chunks are handed over channels
// buffered to the credit window — a sender runs at most Window chunks
// ahead of its receiver, so the backpressure and rejection semantics
// are those of the TCP transport without the codec (a window of 1 is
// the unbuffered stop-and-wait handoff). Live subscriptions, routing
// and admission are not served here: run them over a Pipe, which is
// the TCP host's own serving loop on an in-memory connection. The
// one-shot round stays on InProc because copying every chunk through
// the codec costs it more than its allocation budget allows.
type InProc struct {
	// Sources maps each docking point to its hosted peer.
	Sources map[string]Source
	// Chunk is the resolved chunk budget in bytes (math.MaxInt for
	// unchunked); it must be positive.
	Chunk int
	// Window is the per-stream credit window in chunks: how far a
	// sender may run ahead of its receiver. Zero means DefaultWindow;
	// values are clamped into [1, the transport-wide maximum].
	Window int
	// Tap, when non-nil, observes the session's protocol events as
	// synthesized wire frames: in-process transfers exchange no bytes,
	// so the tap encodes the frame each event *would* put on the TCP
	// wire (open, begin, chunks, end, verdicts, rejects) and hands it
	// over — the same capture format both transports then share. The
	// session's tag is a trace ID minted at the first tapped frame.
	// Nil (the default) costs one nil check per event and nothing else.
	Tap Tap

	tapMu   sync.Mutex // serializes the lazily-built tap encoder
	tapEnc  *frameWriter
	tapDest tapSink
	nextID  atomic.Uint32
}

// tapSink adapts a Tap to the frame encoder: every encoded frame's
// bytes are handed to the tap as one head slice. The caller sets dir
// per frame under the InProc tap mutex.
type tapSink struct {
	tap  Tap
	dir  TapDir
	sess uint64
}

func (s *tapSink) Write(p []byte) (int, error) {
	s.tap.TapFrame(s.dir, s.sess, p, nil)
	return len(p), nil
}

// tapFrame encodes one synthesized frame into the tap; a no-op without
// a tap. Chunk frames go through the general encoder, not the vectored
// writeChunk — net.Buffers on a non-socket writer would split the
// header and payload into two tap events.
func (s *InProc) tapFrame(dir TapDir, f frame) {
	if s.Tap == nil {
		return
	}
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	if s.tapEnc == nil {
		s.tapDest = tapSink{tap: s.Tap, sess: obs.NewTraceID()}
		s.tapEnc = &frameWriter{w: &s.tapDest}
	}
	s.tapDest.dir = dir
	s.tapEnc.write(f)
}

// window resolves the effective credit window.
func (s *InProc) window() int {
	if s.Window == 0 {
		return DefaultWindow
	}
	return clampWindow(s.Window, 0)
}

func (s *InProc) source(fn string) (Source, error) {
	src, ok := s.Sources[fn]
	if !ok {
		return nil, fmt.Errorf("transport: no source for docking point %s", fn)
	}
	return src, nil
}

// Verdict validates fn's document against its local type in place.
func (s *InProc) Verdict(ctx context.Context, fn string) (bool, error) {
	src, err := s.source(fn)
	if err != nil {
		return false, err
	}
	id := s.nextID.Add(1)
	s.tapFrame(TapOut, frame{typ: frameVerdictReq, id: id, str: fn})
	v := src.Verdict(ctx)
	if err := ctx.Err(); err != nil {
		s.tapFrame(TapOut, frame{typ: frameVerdictCancel, id: id})
		return false, err
	}
	flag := byte(0)
	if v {
		flag = 1
	}
	s.tapFrame(TapIn, frame{typ: frameVerdict, id: id, flag: flag})
	return v, nil
}

// Open starts fn's transfer: a sender goroutine serializes the document
// into chunk-budget frames on a channel buffered to window-1 — the
// sender pipelines up to the credit window of unconsumed chunks, then
// blocks, and stops serializing the moment the fragment is aborted (or
// ctx ends): at most one window past the failure point is ever
// serialized. The chunker's ring holds window+1 buffers because chunks
// travel by reference: one held by the receiver, window-1 queued, one
// being filled. The ring is recycled once both ends are done with it:
// the sender has exited and the receiver has reached EOF or aborted.
func (s *InProc) Open(ctx context.Context, fn string) (Fragment, error) {
	src, err := s.source(fn)
	if err != nil {
		return nil, err
	}
	win := s.window()
	id := s.nextID.Add(1)
	s.tapFrame(TapOut, frame{typ: frameOpen, id: id, str: fn})
	if s.Tap != nil {
		// The begin frame announces the size, which an accepted
		// transfer otherwise never asks its source for.
		s.tapFrame(TapIn, frame{typ: frameBegin, id: id, size: uint64(src.Size()), win: uint32(win)})
	}
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan []byte, win-1)
	f := &inprocFragment{sess: s, id: id, src: src, ch: ch, cancel: cancel}
	f.w = newChunkerDepth(s.Chunk, win+1, func(chunk []byte) error {
		s.tapFrame(TapIn, frame{typ: frameChunk, id: id, data: chunk})
		select {
		case ch <- chunk:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	f.holds.Store(2)
	go func() {
		defer f.letGo()
		defer close(ch)
		if src.Serialize(f.w) == nil {
			if f.w.flush() == nil { // the final partial chunk
				s.tapFrame(TapIn, frame{typ: frameEnd, id: id})
			}
		}
	}()
	return f, nil
}

// Close is a no-op: in-process sessions hold no resources beyond their
// per-fragment senders, which die with their contexts.
func (s *InProc) Close() error { return nil }

type inprocFragment struct {
	sess    *InProc
	id      uint32
	src     Source
	ch      <-chan []byte
	cancel  context.CancelFunc
	aborted bool
	done    bool // the receiver has let go of the ring (EOF or abort)

	w     *chunker
	holds atomic.Int32 // ends still using w's ring: sender and receiver
}

// letGo drops one end's hold on the chunk ring; the last one recycles it.
func (f *inprocFragment) letGo() {
	if f.holds.Add(-1) == 0 {
		f.w.release()
	}
}

// receiverDone lets go of the ring from the receiving end, once.
func (f *inprocFragment) receiverDone() {
	if !f.done {
		f.done = true
		f.letGo()
	}
}

// Size is resolved lazily from the source: only aborted transfers need
// it (for byte-savings accounting), so accepted transfers never ask.
func (f *inprocFragment) Size() int { return f.src.Size() }

func (f *inprocFragment) Next() ([]byte, error) {
	if f.aborted {
		return nil, fmt.Errorf("transport: read from aborted stream")
	}
	chunk, ok := <-f.ch
	if !ok {
		f.cancel() // transfer complete: release the sender's context
		f.receiverDone()
		return nil, io.EOF
	}
	return chunk, nil
}

func (f *inprocFragment) Abort() {
	if !f.aborted {
		f.aborted = true
		f.sess.tapFrame(TapOut, frame{typ: frameReject, id: f.id, str: "rejected by receiver"})
	}
	f.cancel()
	f.receiverDone()
}
