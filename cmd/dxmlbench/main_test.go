package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// duration matches a printed time.Duration together with the padding
// before it, so that a column of timings masks to the same text however
// wide each timing prints.
var duration = regexp.MustCompile(` *\b\d+(\.\d+)?(ns|µs|ms|s)\b`)

// TestExperimentsRun runs every experiment end to end, as -exp all does
// (about 0.3 s), and holds its output, durations masked, to
// testdata/<experiment>.golden: the typings and verdicts of Figures 4–6,
// the |Ω| states of Figure 7, the cells of Figure 8 and the sizes of
// Tables 1–2 must not move. Run with -update to rewrite the golden files.
func TestExperimentsRun(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var out bytes.Buffer
			e.run(&out)
			got := duration.ReplaceAll(out.Bytes(), []byte(" <duration>"))
			path := filepath.Join("testdata", e.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (durations masked):\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
