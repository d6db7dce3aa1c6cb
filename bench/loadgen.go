package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one benchmark scenario: how its inputs are made and how it
// is driven.
type workload struct {
	name string
	// rate is the open-loop arrival rate in ops/s, frozen below the
	// closed-loop capacity bench/README.md records; 0 means the workload
	// runs closed-loop.
	rate    float64
	workers int
	prepare func(params) (inputs, error)
}

// params are what a workload's inputs are generated from.
type params struct {
	seed  int64
	scale float64 // input size factor: 1 for the benchmark, small in smoke tests
}

// inputs are a workload's generated inputs; setup builds the system
// under test from them (the timed part of start-up).
type inputs interface {
	setup(tr *tracer) (system, error)
}

// system is one set-up instance of a workload.
type system interface {
	// crossCheck verifies once, against an oracle, the expected verdicts
	// the inputs were built to have.
	crossCheck() error
	// plant flips one expected verdict (smoke tests).
	plant()
	// op runs operation c.i. Synchronous systems return its outcome;
	// an asyncSystem reports completion through c.ph.complete.
	op(c *opCtx) error
	// mark snapshots the traffic counters at the start of a phase.
	mark()
	// layers adds the workload's per-layer metrics for phase ph; tr is
	// nil for an untraced phase. An error is a wrong output met while
	// measuring them.
	layers(r *report, ph *phase, tr *tracer) error
	// check is the end-of-run oracle.
	check() error
	close()
}

// asyncSystem completes operations after op returns; its workload runs
// open-loop.
type asyncSystem interface {
	system
	// drain waits until every operation of ph has completed, failing
	// those still open at the deadline.
	drain(ph *phase, deadline time.Time)
}

var workloads = []*workload{
	{name: "ship-tcp", workers: 1, prepare: prepareShip(true)},
	{name: "ship-inproc", workers: 1, prepare: prepareShip(false)},
	{name: "host-fanin", rate: faninRate, workers: 2, prepare: prepareFanin},
	{name: "live-edits", rate: liveRate, workers: 1, prepare: prepareLive},
	{name: "design-batch", workers: 1, prepare: prepareDesign},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// errWrong marks an operation whose output disagreed with the oracle.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return e.msg }

func wrongf(format string, args ...any) error { return &errWrong{fmt.Sprintf(format, args...)} }

// opCtx is one operation in flight.
type opCtx struct {
	i, worker int
	due       time.Time // open loop: when it was scheduled; closed loop: when it started
	span      int64     // the op's trace span (traced phases)
	start     int64     // trace clock at the op's start
	ph        *phase
}

// ref names the op as the parent of the spans recorded inside it.
func (c *opCtx) ref() (op, parent int64) { return int64(c.i), c.span }

// phase is one measured (or warm-up) interval.
type phase struct {
	tr    *tracer
	async bool
	open  bool // open loop: lat is pre-sized and indexed by op
	start time.Time

	mu       sync.Mutex
	lat      []int64 // per-op latency in ns; negative: failed or never completed
	end      time.Time
	wrong    int
	problems []string
	lags     []int64
	backlog  int

	elapsed   time.Duration
	cpu       time.Duration
	alloc     uint64
	gcs       uint32
	pause     time.Duration
	heapPeak  uint64
	heapWatch bool
}

const pending = -2

// begin opens the op's trace span.
func (ph *phase) begin(c *opCtx) {
	c.ph = ph
	if ph.tr != nil {
		c.span, c.start = ph.tr.beginOp(c.i)
	}
}

// complete records op c's outcome: latency from its due time, or a
// failure; a wrong verdict is also noted as a problem.
func (ph *phase) complete(c *opCtx, err error) {
	now := time.Now()
	if ph.tr != nil {
		ph.tr.endOp(c)
	}
	lat := int64(now.Sub(c.due))
	var w *errWrong
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if err != nil {
		lat = -1
		if errors.As(err, &w) {
			ph.wrong++
		}
		if len(ph.problems) < 5 {
			ph.problems = append(ph.problems, fmt.Sprintf("op %d: %v", c.i, err))
		}
	}
	if now.After(ph.end) {
		ph.end = now
	}
	if ph.open {
		ph.lat[c.i] = lat
		return
	}
	ph.lat = append(ph.lat, lat)
}

// failedOps counts operations that failed or never completed.
func (ph *phase) failedOps() int {
	n := 0
	for _, l := range ph.lat {
		if l < 0 {
			n++
		}
	}
	return n
}

// measure runs one phase of dur and samples the process's resource use
// around it.
func measure(w *workload, sys system, dur time.Duration, tr *tracer) *phase {
	_, async := sys.(asyncSystem)
	open := w.rate > 0
	ph := &phase{tr: tr, async: async, open: open}
	runtime.GC()
	sys.mark()
	cpu0, mem0 := cpuTime(), memStats()
	var stopWatch func() uint64
	if tr != nil {
		stopWatch = watchHeap()
	}
	ph.start = time.Now()
	ph.end = ph.start
	if open {
		openLoop(sys, ph, w.rate, w.workers, dur)
	} else {
		closedLoop(sys, ph, w.workers, dur)
	}
	if ph.async {
		sys.(asyncSystem).drain(ph, time.Now().Add(30*time.Second))
	}
	cpu1, mem1 := cpuTime(), memStats()
	if stopWatch != nil {
		ph.heapPeak, ph.heapWatch = stopWatch(), true
	}
	ph.elapsed = ph.end.Sub(ph.start)
	ph.cpu = cpu1 - cpu0
	ph.alloc = mem1.TotalAlloc - mem0.TotalAlloc
	ph.gcs = mem1.NumGC - mem0.NumGC
	ph.pause = time.Duration(mem1.PauseTotalNs - mem0.PauseTotalNs)
	return ph
}

// closedLoop runs ops back to back on each worker until dur has passed;
// an op is timed from its own start.
func closedLoop(sys system, ph *phase, workers int, dur time.Duration) {
	deadline := ph.start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c := &opCtx{i: int(next.Add(1) - 1), worker: w, due: time.Now()}
				ph.begin(c)
				err := sys.op(c)
				ph.complete(c, err)
			}
		}()
	}
	wg.Wait()
}

// openLoop starts rate·dur ops on a fixed schedule, spread over workers;
// each op is timed from when it was due, so a stall also charges the ops
// queued behind it. Start lag and the backlog of due-but-unstarted ops
// show whether the generator kept up.
func openLoop(sys system, ph *phase, rate float64, workers int, dur time.Duration) {
	n := int(rate * dur.Seconds())
	ph.lat = make([]int64, n)
	for i := range ph.lat {
		ph.lat[i] = pending
	}
	ph.lags = make([]int64, n)
	var next atomic.Int64
	var backlog atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				ph.lags[i] = int64(now.Sub(due))
				storeMax(&backlog, int64(now.Sub(ph.start).Seconds()*rate)+1-int64(i))
				c := &opCtx{i: i, worker: w, due: due}
				ph.begin(c)
				err := sys.op(c)
				if !ph.async || err != nil {
					ph.complete(c, err)
				}
			}
		}()
	}
	wg.Wait()
	ph.backlog = int(backlog.Load())
}

// storeMax raises v to x if x is larger.
func storeMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// latencies returns the phase's latencies in ms, sorted, with failed ops
// as +Inf.
func (ph *phase) latencies() []float64 {
	out := make([]float64, len(ph.lat))
	for i, l := range ph.lat {
		if l < 0 {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(l) / 1e6
		}
	}
	sort.Float64s(out)
	return out
}

func (ph *phase) latencyQuantile(q float64) float64 { return nearestRank(ph.latencies(), q) }

// meanLatencyMs is the mean latency of the completed ops.
func (ph *phase) meanLatencyMs() float64 {
	sum, n := 0.0, 0
	for _, l := range ph.lat {
		if l >= 0 {
			sum += float64(l)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e6
}

// endToEnd sets the phase's end-to-end metrics.
func (ph *phase) endToEnd(r *report) {
	ops := float64(len(ph.lat))
	r.set("throughput_ops_s", ops/ph.elapsed.Seconds())
	r.set("latency_p50_ms", ph.latencyQuantile(0.50))
	r.set("cpu_ms_per_op", float64(ph.cpu)/1e6/ops)
	r.set("alloc_kb_per_op", float64(ph.alloc)/1024/ops)
	ph.runtimeLayers(r)
}

// runtimeLayers sets the Go runtime's and the load generator's metrics.
func (ph *phase) runtimeLayers(r *report) {
	ops := float64(len(ph.lat))
	r.set("runtime.gc_per_op", float64(ph.gcs)/ops)
	r.set("runtime.gc_pause_ms", float64(ph.pause)/1e6)
	if ph.heapWatch {
		r.set("runtime.heap_peak_mb", float64(ph.heapPeak)/1e6)
	}
	if ph.lags != nil {
		lags := make([]float64, len(ph.lags))
		for i, l := range ph.lags {
			lags[i] = float64(l) / 1e6
		}
		sort.Float64s(lags)
		r.set("loadgen.lag_p99_ms", nearestRank(lags, 0.99))
		r.set("loadgen.backlog_max", float64(ph.backlog))
	}
}

// nearestRank is the q-quantile of sorted values by the nearest-rank
// rule: at least a share q of the values are at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// finite maps the +Inf latency of failed ops to the largest float, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// watchHeap samples the live heap every 20 ms until the returned stop
// function is called; stop returns the peak in bytes.
func watchHeap() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return sample[0].Value.Uint64()
	}
	done := make(chan struct{})
	result := make(chan uint64)
	go func() {
		peak := read()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, read())
			case <-done:
				result <- max(peak, read())
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}
