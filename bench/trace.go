package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dxml"
)

// tracer records a traced run: a span at every layer boundary the
// benchmark wraps (name, op, parent, start, end) in a preallocated
// in-memory slice written out as JSONL at exit, plus per-layer time and
// count accumulators. Timers run per call, per chunk or per round, never
// per node. Every method is a no-op on a nil tracer, so untraced runs
// call straight through.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	curOp   atomic.Int64 // the op most recently started
	curSpan atomic.Int64 // its span
	floor   atomic.Int64 // spans of ops before the last reset are dropped

	mu      sync.Mutex
	spans   []span
	dropped int
	dials   []float64 // ms

	timers map[string]*timer // fixed at construction, read-only after
}

// span is one traced interval; clock values are ns since the trace epoch.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// timer accumulates one layer's time and count.
type timer struct{ ns, n atomic.Int64 }

// spanCapacity bounds the preallocated span slice; later spans are
// counted as dropped.
const spanCapacity = 1 << 18

var timerNames = []string{
	"op", "transport.dial", "transport.open", "transport.fragment", "transport.next_wait",
	"transport.verdict", "host.build", "host.serialize", "host.verdict", "live.publish",
	"schema.parse", "core.loc", "core.ml", "core.perfect", "core.cons", "stream.compile",
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, spanCapacity), timers: map[string]*timer{}}
	for _, name := range timerNames {
		t.timers[name] = &timer{}
	}
	return t
}

// now is the trace clock.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// reset clears what the warm-up recorded.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.floor.Store(t.ids.Load() + 1)
	t.mu.Lock()
	t.spans, t.dropped, t.dials = t.spans[:0], 0, nil
	t.mu.Unlock()
	for _, tm := range t.timers {
		tm.ns.Store(0)
		tm.n.Store(0)
	}
}

// beginOp reserves the op's span and makes it the current op, which
// host-side spans attach to. The op's start is read first, so a host-side
// span that sees the op as current cannot start before it.
func (t *tracer) beginOp(i int) (id, start int64) {
	start = t.now()
	id = t.ids.Add(1)
	t.curOp.Store(int64(i))
	t.curSpan.Store(id)
	return id, start
}

// endOp records the op's span.
func (t *tracer) endOp(c *opCtx) {
	end := t.now()
	t.add("op", end-c.start, 1)
	t.record(span{Name: "op", ID: c.span, Op: int64(c.i), Start: c.start, End: end})
}

// current is the op most recently started and its span. The ship
// workloads run one sequential client, so a host-side span attaches to
// the op that caused it; with several workers it names the latest one.
func (t *tracer) current() (op, parent int64) { return t.curOp.Load(), t.curSpan.Load() }

// span records a span ending now, and adds it to the named timer. A
// host-side span of a warm-up op that ends after the reset is dropped.
func (t *tracer) span(name string, op, parent, start int64) {
	if t == nil || parent < t.floor.Load() {
		return
	}
	end := t.now()
	t.add(name, end-start, 1)
	t.record(span{Name: name, ID: t.ids.Add(1), Parent: parent, Op: op, Start: start, End: end})
}

// add accumulates time and count without a span (per-chunk timers).
func (t *tracer) add(name string, ns, n int64) {
	tm := t.timers[name]
	tm.ns.Add(ns)
	tm.n.Add(n)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// total is a timer's accumulated ns and count.
func (t *tracer) total(name string) (ns, n float64) {
	tm := t.timers[name]
	return float64(tm.ns.Load()), float64(tm.n.Load())
}

// mean is a timer's mean per count, in ns (0 when it never ran).
func (t *tracer) mean(name string) float64 {
	ns, n := t.total(name)
	if n == 0 {
		return 0
	}
	return ns / n
}

// dial records one session dial of op c.
func (t *tracer) dial(c *opCtx, start int64) {
	if t == nil {
		return
	}
	op, parent := c.ref()
	t.span("transport.dial", op, parent, start)
	t.mu.Lock()
	t.dials = append(t.dials, float64(t.now()-start)/1e6)
	t.mu.Unlock()
}

// dialQuantile is a quantile of the recorded dial times, in ms.
func (t *tracer) dialQuantile(q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := append([]float64(nil), t.dials...)
	sort.Float64s(d)
	return nearestRank(d, q)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSONL: a stamp line, then one span a line.
func (t *tracer) write(path, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"stamp": stamp, "spans": len(t.spans), "dropped": t.dropped})
	for _, s := range t.spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// session wraps a dialed session so Verdict and Open are timed per call
// and each opened fragment per chunk; ref names the op the calls belong
// to. It hides the live-session interface, so live workloads time their
// calls at the caller instead.
func (t *tracer) session(s dxml.TransportSession, ref func() (op, parent int64)) dxml.TransportSession {
	if t == nil {
		return s
	}
	return &tracedSession{TransportSession: s, tr: t, ref: ref}
}

type tracedSession struct {
	dxml.TransportSession
	tr  *tracer
	ref func() (op, parent int64)
}

func (s *tracedSession) Verdict(ctx context.Context, fn string) (bool, error) {
	op, parent := s.ref()
	start := s.tr.now()
	v, err := s.TransportSession.Verdict(ctx, fn)
	s.tr.span("transport.verdict", op, parent, start)
	return v, err
}

func (s *tracedSession) Open(ctx context.Context, fn string) (dxml.TransportFragment, error) {
	op, parent := s.ref()
	start := s.tr.now()
	f, err := s.TransportSession.Open(ctx, fn)
	s.tr.span("transport.open", op, parent, start)
	if err != nil {
		return nil, err
	}
	return &tracedFragment{TransportFragment: f, tr: s.tr, op: op, parent: parent, start: start}, nil
}

// tracedFragment times each Next (time blocked waiting for a chunk) and
// records one span per transfer, from Open to EOF or Abort.
type tracedFragment struct {
	dxml.TransportFragment
	tr                *tracer
	op, parent, start int64
	done              bool
}

func (f *tracedFragment) Next() ([]byte, error) {
	start := f.tr.now()
	b, err := f.TransportFragment.Next()
	end := f.tr.now()
	if err != nil {
		f.tr.add("transport.next_wait", end-start, 0)
		f.finish()
		return b, err
	}
	f.tr.add("transport.next_wait", end-start, 1)
	return b, nil
}

func (f *tracedFragment) Abort() {
	f.TransportFragment.Abort()
	f.finish()
}

func (f *tracedFragment) finish() {
	if !f.done {
		f.done = true
		f.tr.span("transport.fragment", f.op, f.parent, f.start)
	}
}

// build wraps a host design's Build function: the call is timed, and
// each source it returns is wrapped so the host side's verdicts and
// serializations are timed per call, attached to the current op.
func (t *tracer) build(b func() (map[string]dxml.TransportSource, int64, error)) func() (map[string]dxml.TransportSource, int64, error) {
	if t == nil {
		return b
	}
	return func() (map[string]dxml.TransportSource, int64, error) {
		op, parent := t.current()
		start := t.now()
		srcs, resident, err := b()
		t.span("host.build", op, parent, start)
		for fn, s := range srcs {
			srcs[fn] = &tracedSource{TransportSource: s, tr: t}
		}
		return srcs, resident, err
	}
}

type tracedSource struct {
	dxml.TransportSource
	tr *tracer
}

func (s *tracedSource) Verdict(ctx context.Context) bool {
	op, parent := s.tr.current()
	start := s.tr.now()
	v := s.TransportSource.Verdict(ctx)
	s.tr.span("host.verdict", op, parent, start)
	return v
}

func (s *tracedSource) Serialize(w io.Writer) error {
	op, parent := s.tr.current()
	start := s.tr.now()
	err := s.TransportSource.Serialize(w)
	s.tr.span("host.serialize", op, parent, start)
	return err
}
