package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// runMany runs each workload n times, each in a child process with its
// own seed, and prints every end-to-end metric's median, quartiles and
// relative spread (interquartile range over the median) against the bound
// the bounds file gives it. This is how BENCHMARK.json's bounds were set.
func runMany(out io.Writer, selected []*workload, seed int64, n int, seconds float64, boundsPath string) error {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# dxmlbench -runs %d seconds=%g %s\n", n, seconds, stamp(seed))
	for _, w := range selected {
		vals := map[string][]float64{}
		bad := 0
		for k := 0; k < n; k++ {
			s := seed + int64(k)
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			line, perr := lastJSON(stdout)
			if perr != nil {
				return fmt.Errorf("%s seed %d: %v (exit: %v)", w.name, s, perr, err)
			}
			if err != nil || !line.Correct || line.Failed > 0 {
				bad++
			}
			for name, m := range line.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		fmt.Fprintf(out, "%s: %d runs, %d incorrect or failing\n", w.name, n, bad)
		fmt.Fprintf(out, "  %-18s %12s %12s %12s %8s %8s %10s\n", "metric", "median", "q1", "q3", "spread", "bound", "spread/bd")
		for _, s := range endToEnd {
			v := append([]float64(nil), vals[s.name]...)
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			b := bounds[s.name]
			ratio := 0.0
			if b > 0 {
				ratio = spread / b
			}
			fmt.Fprintf(out, "  %-18s %12.6g %12.6g %12.6g %8.4f %8.4f %10.3f %s\n", s.name, med, q1, q3, spread, b, ratio, s.unit)
		}
	}
	return nil
}

type jsonLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastJSON parses the last line of a run's standard output.
func lastJSON(stdout []byte) (*jsonLine, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line jsonLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, nil
}

// readBounds reads the end-to-end bounds from a BENCHMARK.json file.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// median of sorted values (the mean of the middle two for an even count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of sorted values as
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method).
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// stamp describes where and on what a result was measured.
func stamp(seed int64) string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d commit=%s network=loopback-only",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), seed, commit())
}

// cpuModel reads the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the binary was built from, when the
// build could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
