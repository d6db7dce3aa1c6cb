package transport

import (
	"context"
	"fmt"
	"io"
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
// allocation budget allows. No frame exists here, so there is nothing
// for an Observer to see: observe a federation on a wire that carries
// frames (TCP or a Pipe).
type InProc struct {
	// Sources maps each docking point to its hosted peer.
	Sources map[string]Source
	// Chunk is the resolved chunk budget in bytes (math.MaxInt for
	// unchunked); it must be positive.
	Chunk int
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
	v := src.Verdict(ctx)
	if err := ctx.Err(); err != nil {
		return false, err
	}
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
	doc, err := serialized(src)
	if err != nil {
		return nil, fmt.Errorf("transport: open %s: %w", fn, err)
	}
	return &inprocFragment{doc: doc, chunk: s.Chunk}, nil
}

// Close is a no-op: in-process sessions hold no resources.
func (s *InProc) Close() error { return nil }

type inprocFragment struct {
	doc     []byte // the captured serialization
	off     int    // bytes handed out so far
	chunk   int    // the chunk budget
	aborted bool
}

func (f *inprocFragment) Size() int { return len(f.doc) }

func (f *inprocFragment) Next() ([]byte, error) {
	if f.aborted {
		return nil, fmt.Errorf("transport: read from aborted stream")
	}
	if f.off == len(f.doc) {
		return nil, io.EOF
	}
	chunk := nextChunk(f.doc, f.off, f.chunk)
	f.off += len(chunk)
	return chunk, nil
}

func (f *inprocFragment) Abort() { f.aborted = true }
