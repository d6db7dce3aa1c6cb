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
// peers that share an address space. Open captures the source's
// serialized bytes (by reference when the source writes them in one
// piece) and the fragment's Next hands out consecutive chunk-budget
// slices of them: no goroutine, no channel and no copy. A chunk is cut
// only when the receiver asks for it, so a rejection ships nothing past
// the chunk that failed, and chunk boundaries are those of the TCP wire.
// Live subscriptions, routing and admission are not served here: run
// them over a Pipe, which is the TCP host's own serving loop on an
// in-memory connection. The one-shot round stays on InProc because
// copying every chunk through the codec costs it more than its
// allocation budget allows.
type InProc struct {
	// Sources maps each docking point to its hosted peer.
	Sources map[string]Source
	// Chunk is the resolved chunk budget in bytes (math.MaxInt for
	// unchunked); it must be positive.
	Chunk int
	// Tap, when non-nil, observes the session's protocol events as
	// synthesized wire frames: in-process transfers exchange no bytes,
	// so the tap encodes the frame each event *would* put on the TCP
	// wire (open, begin, chunks, end, verdicts, rejects) and hands it
	// over — the same capture format both transports then share. The
	// begin frame announces a window of 0: no credit window applies in
	// process. The session's tag is a trace ID minted at the first
	// tapped frame. Nil (the default) costs one nil check per event and
	// nothing else.
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

// Open captures fn's serialized bytes; the fragment slices its chunks
// from them on demand.
func (s *InProc) Open(ctx context.Context, fn string) (Fragment, error) {
	src, err := s.source(fn)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id := s.nextID.Add(1)
	s.tapFrame(TapOut, frame{typ: frameOpen, id: id, str: fn})
	doc, err := serialized(src)
	if err != nil {
		s.tapFrame(TapIn, frame{typ: frameStreamErr, id: id, str: err.Error()})
		return nil, fmt.Errorf("transport: open %s: %w", fn, err)
	}
	s.tapFrame(TapIn, frame{typ: frameBegin, id: id, size: uint64(len(doc))})
	return &inprocFragment{sess: s, id: id, doc: doc}, nil
}

// Close is a no-op: in-process sessions hold no resources.
func (s *InProc) Close() error { return nil }

type inprocFragment struct {
	sess    *InProc
	id      uint32
	doc     []byte // the captured serialization
	off     int    // bytes handed out so far
	aborted bool
	ended   bool
}

func (f *inprocFragment) Size() int { return len(f.doc) }

func (f *inprocFragment) Next() ([]byte, error) {
	if f.aborted {
		return nil, fmt.Errorf("transport: read from aborted stream")
	}
	if f.off == len(f.doc) {
		if !f.ended {
			f.ended = true
			f.sess.tapFrame(TapIn, frame{typ: frameEnd, id: f.id})
		}
		return nil, io.EOF
	}
	chunk := nextChunk(f.doc, f.off, f.sess.Chunk)
	f.off += len(chunk)
	f.sess.tapFrame(TapIn, frame{typ: frameChunk, id: f.id, data: chunk})
	return chunk, nil
}

func (f *inprocFragment) Abort() {
	if !f.aborted {
		f.aborted = true
		f.sess.tapFrame(TapOut, frame{typ: frameReject, id: f.id, str: "rejected by receiver"})
	}
}
