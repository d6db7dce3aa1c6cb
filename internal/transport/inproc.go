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
	// Observer, when non-nil, observes the session's protocol events as
	// synthesized wire frames: in-process transfers exchange no bytes,
	// so each event is encoded as the frame it *would* put on the TCP
	// wire (open, begin, chunks, end, verdicts, rejects), and captures
	// of both transports share one format. The begin frame announces a
	// window of 0: no credit window applies in process. The session's
	// trace ID is minted at the first observed frame. Nil (the default)
	// costs one nil check per event and nothing else.
	Observer Observer

	mu     sync.Mutex   // serializes the lazily-built encoder and its buffer's observer
	enc    *frameWriter // encodes observed frames into its buffer
	sess   uint64       // trace ID, minted with the encoder
	nextID atomic.Uint32
}

// observe encodes one synthesized frame and hands it to the observer;
// a no-op without one. Chunk frames go through the general encoder, so
// each frame is observed as one head slice.
func (s *InProc) observe(dir Dir, f frame) {
	if s.Observer == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		s.enc, s.sess = &frameWriter{w: io.Discard}, obs.NewTraceID()
	}
	s.enc.write(f)
	observe(s.Observer, dir, s.sess, &f, Control, "", s.enc.buf, nil)
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
	s.observe(Out, frame{typ: frameVerdictReq, id: id, str: fn})
	v := src.Verdict(ctx)
	if err := ctx.Err(); err != nil {
		s.observe(Out, frame{typ: frameVerdictCancel, id: id})
		return false, err
	}
	flag := byte(0)
	if v {
		flag = 1
	}
	s.observe(In, frame{typ: frameVerdict, id: id, flag: flag})
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
	s.observe(Out, frame{typ: frameOpen, id: id, str: fn})
	doc, err := serialized(src)
	if err != nil {
		s.observe(In, frame{typ: frameStreamErr, id: id, str: err.Error()})
		return nil, fmt.Errorf("transport: open %s: %w", fn, err)
	}
	s.observe(In, frame{typ: frameBegin, id: id, size: uint64(len(doc))})
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
			f.sess.observe(In, frame{typ: frameEnd, id: f.id})
		}
		return nil, io.EOF
	}
	chunk := nextChunk(f.doc, f.off, f.sess.Chunk)
	f.off += len(chunk)
	f.sess.observe(In, frame{typ: frameChunk, id: f.id, data: chunk})
	return chunk, nil
}

func (f *inprocFragment) Abort() {
	if !f.aborted {
		f.aborted = true
		f.sess.observe(Out, frame{typ: frameReject, id: f.id, str: "rejected by receiver"})
	}
}
