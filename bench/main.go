// Command dxmlbench is the federation's end-to-end benchmark. It drives
// one workload through the dxml facade in a single process: inputs
// generated from -seed, the system set up in several timed batches
// (setup_s is the median batch mean), an untimed warm-up, then -seconds
// of measured operations.
// Every verdict is checked against an oracle, and every metric is printed
// by name with its unit. The last line of standard output is one JSON
// object,
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of an untraced run (-trace 0) or the
// per-layer metrics of a traced run (-trace 1), the sets BENCHMARK.json
// at the repository root lists. A wrong verdict or a failed operation
// exits 1 after the metrics are printed.
//
// Run it from the repository root with bench/run.sh, which builds it
// first; bench/README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd is the untraced run's metric set, in BENCHMARK.json order.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer is the traced run's metric set, in BENCHMARK.json order. A
// layer a workload does not exercise reads 0.
var perLayer = []spec{
	{"transport.dial_ms_p50", "ms"},
	{"transport.dial_ms_p99", "ms"},
	{"transport.open_us", "us"},
	{"transport.next_wait_ms_per_op", "ms"},
	{"transport.send_ms_per_op", "ms"},
	{"transport.verdict_rtt_us", "us"},
	{"transport.chunks_per_op", "count"},
	{"xmltree.serialize_mb_s", "MB/s"},
	{"stream.feed_ms_per_op", "ms"},
	{"stream.feed_mb_s", "MB/s"},
	{"stream.local_verdict_us", "us"},
	{"stream.compile_ms", "ms"},
	{"p2p.round_ms", "ms"},
	{"p2p.validated_mb_s", "MB/s"},
	{"p2p.wire_bytes_per_op", "B"},
	{"p2p.frames_per_op", "count"},
	{"p2p.saved_ratio", "ratio"},
	{"host.builds_per_op", "ratio"},
	{"host.build_ms", "ms"},
	{"host.rejections", "count"},
	{"live.publish_us", "us"},
	{"live.revalidated_bytes_per_edit", "B"},
	{"live.skipped_ratio", "ratio"},
	{"live.wire_bytes_per_edit", "B"},
	{"core.loc_ms", "ms"},
	{"core.ml_ms", "ms"},
	{"core.perfect_ms", "ms"},
	{"core.cons_ms", "ms"},
	{"core.typings_total", "count"},
	{"core.omega_states_total", "count"},
	{"schema.parse_ms", "ms"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.other_pct", "%"},
	{"trace.spans", "count"},
}

// extra metrics are printed in the human-readable report only.
var extra = []spec{{"fail_ratio", "ratio"}}

var units = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]spec{endToEnd, perLayer, extra} {
		for _, s := range list {
			m[s.name] = s.unit
		}
	}
	return m
}()

// report is an ordered set of metric values.
type report struct {
	names []string
	vals  map[string]float64
}

func newReport() *report { return &report{vals: map[string]float64{}} }

// set records a metric; the name must be one of the known specs.
func (r *report) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("dxmlbench: unknown metric " + name)
	}
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = v
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	warmup  time.Duration
	// setup_s is the median of the mean set-up time of this many
	// batches, each setting up until batchFor has passed (see setUp).
	batches  int
	batchFor time.Duration
	scale    float64 // input size factor: 1 for the benchmark, small in smoke tests
	plant    bool    // plant one wrong expected verdict (smoke tests)
	spans    string  // traced run: the span file
}

// outcome is one run's result: the metrics plus the counts the JSON line
// carries.
type outcome struct {
	rep       *report
	attempted int
	failed    int
	wrong     int
	problems  []string
}

func (o *outcome) correct() bool { return o.wrong == 0 && len(o.problems) == 0 }

func main() {
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	runs := flag.Int("runs", 0, "run each workload N times with seeds seed..seed+N-1 and print each metric's spread against its bound in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "dxmlbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *runs > 0 {
		if err := runMany(os.Stdout, selected, *seed, *runs, *seconds, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "dxmlbench:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, w := range selected {
		cfg := config{seed: *seed, seconds: *seconds, warmup: warmupFor(*seconds), batches: 7, batchFor: 70 * time.Millisecond,
			scale: 1, spans: filepath.Join(".bench_build", "spans-"+w.name+".jsonl")}
		o, err := run(w, cfg, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dxmlbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := printOutcome(os.Stdout, w, cfg, o, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "dxmlbench:", err)
			os.Exit(1)
		}
		ok = ok && o.correct() && o.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// warmupFor sizes the untimed warm-up: a tenth of the measured time,
// between 0.2 and 1.5 seconds.
func warmupFor(seconds float64) time.Duration {
	return time.Duration(min(max(seconds/10, 0.2), 1.5) * float64(time.Second))
}

// run executes one workload. Untraced, it sets up in cfg.batches batches
// and measures for cfg.seconds. Traced, it measures a traced half between
// two untraced quarters, so a traced run takes as long as an untraced
// one, and a drift of the machine's speed over the run cancels out of
// the tracing overhead. The untraced quarters also give the tail
// percentiles.
func run(w *workload, cfg config, traced bool) (*outcome, error) {
	in, err := w.prepare(params{seed: cfg.seed, scale: cfg.scale})
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	o := &outcome{rep: newReport()}
	if !traced {
		// Half the set-up batches run before the warm-up and half after
		// the measured phase, so a slow spell of the machine shorter than
		// the run moves at most half of them.
		early := (cfg.batches + 1) / 2
		sys, means, err := start(in, nil, cfg, early, cfg.batchFor)
		if err != nil {
			return nil, err
		}
		defer sys.close()
		ph := measureWithWarmup(w, sys, cfg, secondsDur(cfg.seconds), nil, o)
		o.finish(sys)
		if late := cfg.batches - early; late > 0 {
			extra, more, err := setUp(in, nil, late, cfg.batchFor)
			if err != nil {
				return nil, err
			}
			extra.close()
			means = append(means, more...)
		}
		o.rep.set("setup_s", median(means))
		ph.endToEnd(o.rep)
		o.layers(sys, ph, nil)
		return o, nil
	}
	for _, s := range perLayer {
		o.rep.set(s.name, 0)
	}
	plain, _, err := start(in, nil, cfg, 1, 0)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	tr := newTracer()
	sys, _, err := start(in, tr, cfg, 1, 0)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	quarter := secondsDur(cfg.seconds / 4)
	before := measureWithWarmup(w, plain, cfg, quarter, nil, o)
	ph := measureWithWarmup(w, sys, cfg, 2*quarter, tr, o)
	after := measure(w, plain, quarter, nil)
	o.absorb(after, true)
	o.finish(plain)
	o.finish(sys)
	ph.runtimeLayers(o.rep)
	o.layers(sys, ph, tr)
	base := &phase{lat: append(append([]int64(nil), before.lat...), after.lat...)}
	o.rep.set("loadgen.latency_p90_ms", base.latencyQuantile(0.90))
	o.rep.set("loadgen.latency_p99_ms", base.latencyQuantile(0.99))
	if b := base.latencyQuantile(0.5); b > 0 {
		o.rep.set("trace.overhead_pct", 100*(ph.latencyQuantile(0.5)-b)/b)
	}
	o.rep.set("trace.spans", float64(tr.count()))
	if err := tr.write(cfg.spans, stamp(cfg.seed)); err != nil {
		return nil, err
	}
	return o, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp builds the system in batches, tearing each build down before the
// next, and returns the last one with each batch's mean set-up time in
// seconds; setup_s is their median. A batch sets up at least once and
// goes on until batchFor has passed since it began, tear-downs and
// collections included, so its cost does not grow with the number of
// set-ups that fit. On a shared machine a core's speed
// switches between a fast and a slow state several times a second, so a
// single set-up of a few ms reads one state or the other, and a median of
// single set-ups jumps between the two. A batch mean follows the share of
// time spent slow, and moves as smoothly as the measured metrics do.
func setUp(in inputs, tr *tracer, batches int, batchFor time.Duration) (system, []float64, error) {
	var sys system
	var means []float64
	for b := 0; b < batches; b++ {
		began, spent, n := time.Now(), time.Duration(0), 0
		for n == 0 || time.Since(began) < batchFor {
			if sys != nil {
				sys.close()
			}
			runtime.GC()
			start := time.Now()
			s, err := in.setup(tr)
			if err != nil {
				return nil, nil, fmt.Errorf("setup: %w", err)
			}
			spent += time.Since(start)
			n++
			sys = s
		}
		means = append(means, spent.Seconds()/float64(n))
	}
	return sys, means, nil
}

// start sets the system up (see setUp), then runs the one-time oracle
// cross-check of the inputs and, in smoke tests, plants a wrong expected
// verdict.
func start(in inputs, tr *tracer, cfg config, batches int, batchFor time.Duration) (system, []float64, error) {
	sys, means, err := setUp(in, tr, batches, batchFor)
	if err != nil {
		return nil, nil, err
	}
	if err := sys.crossCheck(); err != nil {
		sys.close()
		return nil, nil, fmt.Errorf("oracle cross-check: %w", err)
	}
	if cfg.plant {
		sys.plant()
	}
	return sys, means, nil
}

// measureWithWarmup runs the untimed warm-up, then the measured phase,
// folding both phases' wrong verdicts into o and the measured phase's
// attempts and failures.
func measureWithWarmup(w *workload, sys system, cfg config, dur time.Duration, tr *tracer, o *outcome) *phase {
	warm := measure(w, sys, cfg.warmup, tr)
	o.absorb(warm, false)
	tr.reset()
	ph := measure(w, sys, dur, tr)
	o.absorb(ph, true)
	return ph
}

// absorb folds a phase's verdict checks into the outcome; only measured
// phases count as attempts.
func (o *outcome) absorb(ph *phase, measured bool) {
	o.wrong += ph.wrong
	o.problems = append(o.problems, ph.problems...)
	if measured {
		o.attempted += len(ph.lat)
		o.failed += ph.failedOps()
	}
}

// finish runs the system's end-of-run oracle.
func (o *outcome) finish(sys system) {
	if err := sys.check(); err != nil {
		o.problems = append(o.problems, "end-of-run check: "+err.Error())
	}
}

// layers adds the system's per-layer metrics.
func (o *outcome) layers(sys system, ph *phase, tr *tracer) {
	if err := sys.layers(o.rep, ph, tr); err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// printOutcome writes the human-readable report and then the JSON line.
func printOutcome(out io.Writer, w *workload, cfg config, o *outcome, traced bool) error {
	mode, list := "untraced", endToEnd
	if traced {
		mode, list = "traced", perLayer
	}
	fmt.Fprintf(out, "# dxmlbench workload=%s mode=%s seconds=%g attempted=%d failed=%d %s\n",
		w.name, mode, cfg.seconds, o.attempted, o.failed, stamp(cfg.seed))
	fail := 0.0
	if o.attempted > 0 {
		fail = float64(o.failed) / float64(o.attempted)
	}
	o.rep.set("fail_ratio", fail)
	for _, name := range o.rep.names {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", name, o.rep.vals[name], units[name])
	}
	sort.Strings(o.problems)
	for _, p := range o.problems {
		fmt.Fprintf(out, "# WRONG: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, map[string]value{}}
	for _, s := range list {
		v, ok := o.rep.vals[s.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, s.name)
		}
		line.Metrics[s.name] = value{finite(v), s.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
