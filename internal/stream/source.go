package stream

import (
	"fmt"
	"io"
	"sync"

	"dxml/internal/xmltree"
)

// readChunkSize is the read budget of the io.Reader adapters. Buffers are
// pooled, so the pull front-ends stay allocation-light.
const readChunkSize = 32 << 10

var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, readChunkSize)
	return &b
}}

// FeedReader pumps r through f in read chunks of the given size (<= 0
// uses the pooled default budget) and closes f in every case, so
// Machine-bound feeders always release their runner. It returns the
// first feed/verdict error, or the wrapped read error. The pull
// front-ends are exactly this adapter over the push parser.
func FeedReader(f *Feeder, r io.Reader, chunk int) error {
	// Clamp user-supplied budgets: a read chunk above 1 MiB buys nothing
	// and must not turn into an arbitrary-size allocation.
	if chunk > 1<<20 {
		chunk = 1 << 20
	}
	var buf []byte
	if chunk <= 0 || chunk == readChunkSize {
		bp := chunkPool.Get().(*[]byte)
		defer chunkPool.Put(bp)
		buf = *bp
	} else {
		buf = make([]byte, chunk)
	}
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if ferr := f.Feed(buf[:n]); ferr != nil {
				f.Close()
				return ferr
			}
		}
		if err == io.EOF {
			return f.Close()
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("stream: %w", err)
		}
	}
}

// StreamXML feeds the structural events of one XML document from r into
// h, without ever materializing a tree: memory is one read chunk plus
// whatever h keeps per open element. Character data is forwarded as Text
// events (a single-type Runner, validated in place, has it skipped);
// comments, processing instructions and attributes are dropped,
// matching the paper's structural abstraction. It is a thin adapter over
// the push-parser Feeder, which network callers drive directly.
func StreamXML(r io.Reader, h Handler) error {
	return FeedReader(NewFeeder(h), r, 0)
}

// StreamXMLInner feeds the events *inside* the document's root element —
// the forest a docking point contributes under extension semantics
// (Section 2.3) — skipping the root's own start and end events.
func StreamXMLInner(r io.Reader, h Handler) error {
	return FeedReader(NewInnerFeeder(h), r, 0)
}

// StreamTree feeds the events of an in-memory tree into h, resolving each
// node's label through h.
func StreamTree(t *xmltree.Tree, h Handler) error {
	if err := startElement(h, t.Label); err != nil {
		return err
	}
	if err := StreamTreeInner(t, h); err != nil {
		return err
	}
	return h.EndElement()
}

// StreamTreeInner feeds the events of t's children only — the forest a
// local fragment contributes at its docking point — skipping t itself.
func StreamTreeInner(t *xmltree.Tree, h Handler) error {
	for _, c := range t.Children {
		if err := StreamTree(c, h); err != nil {
			return err
		}
	}
	return nil
}

// ValidateReader validates one XML document from r in a single pass,
// with memory proportional to the document's depth.
func (m *Machine) ValidateReader(r io.Reader) error {
	run := m.NewRunner()
	defer run.Release()
	if err := StreamXML(r, run); err != nil {
		return err
	}
	return run.Finish()
}

// ValidateTree validates a materialized tree by streaming its events
// through the machine. Verdicts agree with schema.EDTD.Validate; this
// walker exists so the two engines are differential-testable and so
// tree-holding callers (the p2p peers) reuse the compiled machine.
func (m *Machine) ValidateTree(t *xmltree.Tree) error {
	run := m.NewRunner()
	defer run.Release()
	if err := StreamTree(t, run); err != nil {
		return err
	}
	return run.Finish()
}
