package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smoke is a tiny run: small inputs, a fraction of a second measured.
func smoke(t *testing.T) config {
	return config{seed: 7, seconds: 0.2, warmup: 50 * time.Millisecond, batches: 1, scale: 0.02,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload untraced and traced at a tiny size and
// checks the result line against BENCHMARK.json: every listed metric is
// printed with its unit, nothing else is, no op failed, and the traced
// run's spans nest.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for _, fw := range f.Workloads {
		w := findWorkload(fw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %s is not in the program", fw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range f.EndToEnd {
				want[m.Name] = m.Unit
			}
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
				want = map[string]string{}
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name, func(t *testing.T) {
				cfg := smoke(t)
				o, err := run(w, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printOutcome(&out, w, cfg, o, traced); err != nil {
					t.Fatal(err)
				}
				line := checkResultLine(t, out.Bytes(), want)
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d (fail_ratio must be 0):\n%s", line.Correct, line.Attempted, line.Failed, out.String())
				}
				if traced {
					checkSpansNest(t, cfg.spans)
				}
			})
		}
	}
}

// checkResultLine parses the last output line and checks its keys and
// metric set.
func checkResultLine(t *testing.T, out []byte, want map[string]string) *jsonLine {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result line keys: want exactly correct, attempted, failed, metrics; got %s", lines[len(lines)-1])
	}
	line, err := lastJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	for name, unit := range want {
		m, ok := line.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if !bytes.Contains(out, []byte("\n"+name+" ")) {
			t.Errorf("metric %s not in the human-readable report", name)
		}
	}
	for name := range line.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is printed but not listed in BENCHMARK.json", name)
		}
	}
	return line
}

// checkSpansNest reads a span file: client-side spans must lie within
// their parent op; host-side spans (host.*) run on the host's goroutines
// and may outlive a rejected op, so they must only start within it.
func checkSpansNest(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || !strings.Contains(sc.Text(), `"stamp"`) {
		t.Fatalf("span file does not start with a stamp line")
	}
	byID := map[int64]span{}
	var spans []span
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s #%d ends before it starts", s.Name, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s #%d: parent #%d missing", s.Name, s.ID, s.Parent)
			continue
		}
		if s.Start < p.Start || (!strings.HasPrefix(s.Name, "host.") && s.End > p.End) {
			t.Errorf("span %s [%d,%d] does not nest in %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

// TestPlantedWrongVerdictFails flips one expected verdict per workload:
// the run must come out incorrect.
func TestPlantedWrongVerdictFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smoke(t)
			cfg.plant = true
			o, err := run(w, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if o.correct() {
				t.Fatalf("planted wrong expectation went unnoticed: %d attempted, %d failed", o.attempted, o.failed)
			}
		})
	}
}

// TestImportsFacadeOnly keeps the benchmark on the root dxml facade: its
// files, tests included, import only dxml and the standard library, so the
// internals can be rewritten under it. The check reads the direct imports;
// the facade's own dependencies on dxml/internal are its business.
func TestImportsFacadeOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "dxml" {
				continue
			}
			if pkg, err := build.Import(path, "", build.FindOnly); err != nil || !pkg.Goroot {
				t.Errorf("%s imports %s, which is neither dxml nor the standard library", name, path)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 3, 4, 9, 10], n=4) == [2.0, 4.0, 9.5]
	q1, q3 = quartiles([]float64{1, 3, 4, 9, 10})
	if q1 != 2 || q3 != 9.5 {
		t.Fatalf("quartiles = %v, %v; want 2, 9.5", q1, q3)
	}
}
