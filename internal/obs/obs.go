// Package obs is the federation's allocation-free telemetry substrate:
// atomic counters, fixed-bucket latency/size histograms, and a
// ring-buffered structured trace log. Every layer of the stack
// (transport, p2p, stream, live, host) takes an optional *Collector;
// a nil collector is the no-op sink — every method begins with a nil
// check and returns immediately, so uninstrumented hot paths pay one
// predicted branch and zero allocations.
//
// Identifiers are enumerated, not stringly-typed: a counter increment
// is one atomic add into a fixed array, a histogram observation is two
// atomic adds plus one bucket increment. Names only exist at the
// exposition edge (Prometheus text, expvar JSON, JSONL trace spans).
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
	"time"
)

// Version is the build identifier reported by /healthz and the debug
// endpoints. Release builds stamp it with
//
//	go build -ldflags "-X dxml/internal/obs.Version=v1.2.3"
var Version = "dev"

// Counter identifies one monotonic event counter.
type Counter uint8

// Counter IDs, one per instrumented event across the stack.
const (
	CFramesEncoded    Counter = iota // transport: frames written to a wire
	CFramesDecoded                   // transport: frames read off a wire
	CChunksSent                      // transport: serialization chunks shipped
	CChunksAcked                     // transport: cumulative chunk acks received
	CReconnects                      // live: sessions re-dialed after a drop
	CHealthUp                        // live: health transitions into Live/Recovered
	CHealthDown                      // live: health transitions into Stale/Down
	CEvictions                       // host: designs evicted to fit the resident budget
	CAdmissions                      // host: sessions admitted by the router
	CRefusals                        // host: sessions refused (unknown design, over capacity)
	CEditsApplied                    // live: edits applied to a replica
	CDocsValidated                   // stream: full-document validations completed
	CStreamEvents                    // stream: parse events fed through runners
	CNodesRevalidated                // stream: nodes recheck-ed by incremental validation
	CNodesSkipped                    // stream: nodes skipped by incremental validation
	CBytesSavedObs                   // p2p: serialization bytes saved by accepted-prefix aborts
	numCounters
)

// Hist identifies one fixed-bucket histogram.
type Hist uint8

// Histogram IDs. Units are encoded in the name: *Ns histograms observe
// nanoseconds, the rest observe raw magnitudes (bytes, chunks).
const (
	HFrameEncodeNs      Hist = iota // transport: serialize+write time, one sample per write call (a chunk batch is one)
	HFrameDecodeNs                  // transport: frame read+decode time
	HChunkRTTNs                     // transport: chunk send → cumulative ack covering it
	HWindowOccupancy                // transport: unacked chunks in flight at send time
	HReconnectBackoffNs             // live: delay slept before a re-dial attempt
	HFragmentOpenNs                 // p2p: fragment open → first use
	HFragmentTransferNs             // p2p: fragment open → transfer settled
	HValidateDocNs                  // stream: one document's validation wall time
	HEditApplyNs                    // live: edit apply + incremental revalidation
	HAdmissionNs                    // host: session admission (routing) latency
	HChunkBytes                     // transport: shipped chunk payload sizes
	numHists
)

// Collector aggregates counters and histograms for one process (or one
// test). The zero value is NOT ready; use New. A nil *Collector is the
// documented no-op sink: all methods are safe to call on nil.
type Collector struct {
	epoch    time.Time
	counters [numCounters]atomic.Int64
	hists    [numHists]Histogram
	trace    atomic.Pointer[TraceLog]
}

// New returns an empty collector whose monotonic clock starts now.
func New() *Collector {
	return &Collector{epoch: time.Now()}
}

// Add increments a counter by n. No-op on a nil collector.
func (c *Collector) Add(id Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[id].Add(n)
}

// Observe records one histogram sample. No-op on a nil collector.
func (c *Collector) Observe(id Hist, v int64) {
	if c == nil {
		return
	}
	c.hists[id].Observe(v)
}

// Nanos returns monotonic nanoseconds since the collector was created,
// the timebase for every latency observation and span timestamp. It
// returns 0 on a nil collector so `start := c.Nanos()` in instrumented
// code stays branch-cheap and allocation-free when telemetry is off.
func (c *Collector) Nanos() int64 {
	if c == nil {
		return 0
	}
	return int64(time.Since(c.epoch))
}

// Counter returns a counter's current value (0 on a nil collector).
func (c *Collector) Counter(id Counter) int64 {
	if c == nil {
		return 0
	}
	return c.counters[id].Load()
}

// Snapshot returns a point-in-time copy of one histogram.
func (c *Collector) Snapshot(id Hist) HistSnapshot {
	if c == nil {
		return HistSnapshot{}
	}
	return c.hists[id].Snapshot()
}

// SetTrace attaches a span sink; Span calls forward to it. A nil log
// detaches. Safe for concurrent use with Span.
func (c *Collector) SetTrace(t *TraceLog) {
	if c == nil {
		return
	}
	c.trace.Store(t)
}

// Trace returns the attached span sink, or nil.
func (c *Collector) Trace() *TraceLog {
	if c == nil {
		return nil
	}
	return c.trace.Load()
}

// Span emits one completed span to the attached trace log. No-op when
// the collector is nil or no trace sink is attached, so span emission
// can stay inline in transfer paths.
func (c *Collector) Span(s Span) {
	if c == nil {
		return
	}
	t := c.trace.Load()
	if t == nil {
		return
	}
	t.Emit(s)
}

// NewTraceID mints a random nonzero 64-bit trace ID. Trace IDs are
// minted by the dialing side at session hello and carried on the wire,
// so the same ID tags both processes' spans for one session.
func NewTraceID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back
			// to a time-derived ID rather than panicking in a hot path.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}
