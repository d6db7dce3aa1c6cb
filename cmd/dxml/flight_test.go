package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dxml"
)

// TestKillDrillRefusedJoinDumpsBundle is the acceptance kill-drill: a
// join against a host serving a different design dies with a typed
// refusal, the capture rig dumps a postmortem bundle, and `dxml
// inspect` decodes that bundle end to end — header, frame timeline,
// and the refusal's message.
func TestKillDrillRefusedJoinDumpsBundle(t *testing.T) {
	_, srv := startEurostatServe(t, eurostatValidDocs)
	other, err := dxml.ParseDesign(`
class dtd
kernel eurostat(f0 f1)
type:
  root eurostat
  eurostat -> averages, nationalIndex*
end
typing f0:
  root root1
  root1 -> averages
end
typing f1:
  root root2
  root2 -> nationalIndex*
end
`)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rig, err := newCaptureRig(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, jerr := runJoinObs(context.Background(), other, srv.host.Addr().String(),
		nil, 0, dxml.DefaultWindow, false, nil, rig)
	if jerr == nil {
		t.Fatal("mismatched design must fail the join")
	}
	// The CLI's error path: dump the postmortem, then seal the capture.
	rig.onError(jerr)
	rig.close()

	if got := dxml.ClassifyFailure(jerr); got != "refused" {
		t.Fatalf("failure classified %q, want refused (%v)", got, jerr)
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "postmortem-refused-*.json"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("want exactly one refused postmortem, got %v (%v)", bundles, err)
	}

	out, err := RunInspect(bundles[0])
	if err != nil {
		t.Fatalf("inspect cannot decode the bundle: %v", err)
	}
	for _, want := range []string{
		"postmortem bundle: kind=refused",
		"err: ",
		"timeline:",
		"hello",
		"refuse",
		"msg=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}

	// The full capture file survives alongside the bundle and decodes
	// with the same tooling.
	if _, err := RunInspect(filepath.Join(dir, captureFileName)); err != nil {
		t.Fatalf("capture file: %v", err)
	}
}

// TestReplayReproducesLiveVerdicts is the replay acceptance criterion:
// a captured join session, re-fed offline through the same validators,
// prints byte-for-byte the verdict report the live run printed, with
// no divergence between recomputed and recorded verdicts.
func TestReplayReproducesLiveVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		docs []string
	}{
		{"valid", eurostatValidDocs},
		{"invalid", func() []string {
			bad := make([]string, len(eurostatValidDocs))
			copy(bad, eurostatValidDocs)
			bad[1] = "root2(nationalIndex(country))"
			return bad
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			df, srv := startEurostatServe(t, tc.docs)
			dir := t.TempDir()
			rig, err := newCaptureRig(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			live, err := runJoinObs(context.Background(), df, srv.host.Addr().String(),
				nil, 16, dxml.DefaultWindow, false, nil, rig)
			if err != nil {
				t.Fatal(err)
			}
			rig.close()

			recs, bundle, err := loadRecords(filepath.Join(dir, captureFileName))
			if err != nil {
				t.Fatal(err)
			}
			if bundle != nil {
				t.Fatal("a capture file is not a bundle")
			}
			if len(recs) == 0 {
				t.Fatal("capture recorded nothing")
			}
			replayed, diverged, err := RunReplay(df, recs)
			if err != nil {
				t.Fatal(err)
			}
			if len(diverged) != 0 {
				t.Fatalf("replay diverged from the recording: %v", diverged)
			}
			if replayed != live {
				t.Fatalf("replay output differs from the live run:\n--- live ---\n%s--- replay ---\n%s", live, replayed)
			}
		})
	}
}

// TestInspectCaptureFlow smokes the inspect report over a real capture:
// the timeline carries the session lifecycle and the streams section
// accounts every transfer as complete with a plausible window peak.
func TestInspectCaptureFlow(t *testing.T) {
	df, srv := startEurostatServe(t, eurostatValidDocs)
	dir := t.TempDir()
	rig, err := newCaptureRig(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJoinObs(context.Background(), df, srv.host.Addr().String(),
		nil, 16, dxml.DefaultWindow, false, nil, rig); err != nil {
		t.Fatal(err)
	}
	rig.close()

	out, err := RunInspect(filepath.Join(dir, captureFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"capture: ",
		"timeline:",
		"hello",
		"verdict_req",
		"fn=",
		"open",
		"begin",
		"chunk",
		"end",
		"streams:",
		"complete, peak window ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
	// Every docking point's transfer appears in the flow summary.
	for _, fn := range df.Funcs() {
		if !strings.Contains(out, "("+fn+")") {
			t.Fatalf("streams section missing %s:\n%s", fn, out)
		}
	}
}

// TestInspectBatchedFlow: with chunk frames sent one vectored write per
// credit grant, inspect's per-stream flow of a capture still accounts
// every transfer's chunks and bytes — the size its begin frame
// announced, cut by the budget — and no stream runs more chunks ahead of
// its acks than its window.
func TestInspectBatchedFlow(t *testing.T) {
	const chunk, window = 16, 4
	df, srv := startEurostatServe(t, eurostatValidDocs)
	dir := t.TempDir()
	rig, err := newCaptureRig(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJoinObs(context.Background(), df, srv.host.Addr().String(),
		nil, chunk, window, false, nil, rig); err != nil {
		t.Fatal(err)
	}
	rig.close()
	path := filepath.Join(dir, captureFileName)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dxml.ReadCapture(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]uint64{} // "sess stream" → announced size
	for _, r := range recs {
		if info, err := dxml.DecodeFrame(r.Wire); err == nil && info.Type == "begin" {
			sizes[fmt.Sprintf("%016x %d", r.Sess, info.Stream)] = info.Size
		}
	}

	out, err := RunInspect(path)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^  sess (\S+) stream (\d+) \(\S+\): (\d+) chunks, (\d+) bytes, complete, peak window (\d+)/(\d+)$`)
	flows := line.FindAllStringSubmatch(out, -1)
	if len(flows) != len(sizes) || len(flows) == 0 {
		t.Fatalf("%d complete flows for %d announced transfers:\n%s", len(flows), len(sizes), out)
	}
	multiBatch := false
	for _, m := range flows {
		size, ok := sizes[m[1]+" "+m[2]]
		if !ok {
			t.Fatalf("flow of sess %s stream %s has no begin frame", m[1], m[2])
		}
		chunks, _ := strconv.Atoi(m[3])
		bytes, _ := strconv.Atoi(m[4])
		peak, _ := strconv.Atoi(m[5])
		win, _ := strconv.Atoi(m[6])
		if uint64(bytes) != size || chunks != (int(size)+chunk-1)/chunk {
			t.Fatalf("%s: %d chunks, %d bytes; announced %d bytes in %d-byte chunks", m[0], chunks, bytes, size, chunk)
		}
		if win != window || peak > win {
			t.Fatalf("%s: peak window %d/%d, granted %d", m[0], peak, win, window)
		}
		multiBatch = multiBatch || chunks > 2*window
	}
	if !multiBatch {
		t.Fatalf("no transfer spans several credit grants:\n%s", out)
	}
}

// TestRenderTop drives the dashboard renderer with fixed snapshots: the
// first refresh has no baseline (zero rates), the second shows deltas
// over the poll interval, and tenants render sorted with the TOTAL row
// from the global counters.
func TestRenderTop(t *testing.T) {
	mk := func(msgA, msgB int64) dxml.HostMetrics {
		return dxml.HostMetrics{
			Designs: 2, Resident: 1, ResidentBytes: 2048,
			ActiveSessions: 3, ActiveStreams: 4,
			Global: dxml.HostCounters{Messages: msgA + msgB, Frames: 2 * (msgA + msgB), Bytes: 100 * (msgA + msgB)},
			Tenants: map[string]dxml.HostTenantMetrics{
				"zeta": {Name: "zeta", ActiveSessions: 1,
					Counters: dxml.HostCounters{Messages: msgB}},
				"alpha": {Name: "alpha", Resident: true, ResidentBytes: 2048, ActiveSessions: 2, ActiveStreams: 4,
					Counters: dxml.HostCounters{Messages: msgA}},
			},
		}
	}

	var first strings.Builder
	renderTop(&first, nil, mk(100, 50), 2*time.Second)
	out := first.String()
	if !strings.Contains(out, "dxml top — 2 designs (1 resident, 2.0KiB), 3 sessions, 4 streams") {
		t.Fatalf("header:\n%s", out)
	}
	ia, iz := strings.Index(out, "alpha"), strings.Index(out, "zeta")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("tenants not sorted:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL") {
		t.Fatalf("TOTAL row missing:\n%s", out)
	}
	// No baseline: every rate column renders 0.0.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "alpha") && !strings.Contains(line, "0.0") {
			t.Fatalf("first refresh should show zero rates:\n%s", out)
		}
	}

	// Second refresh: alpha gained 20 messages over 2s → 10.0/s.
	prev := mk(100, 50)
	var second strings.Builder
	renderTop(&second, &prev, mk(120, 50), 2*time.Second)
	var alphaLine, zetaLine string
	for _, line := range strings.Split(second.String(), "\n") {
		if strings.HasPrefix(line, "alpha") {
			alphaLine = line
		}
		if strings.HasPrefix(line, "zeta") {
			zetaLine = line
		}
	}
	if !strings.Contains(alphaLine, "10.0") {
		t.Fatalf("alpha rate: %q", alphaLine)
	}
	if !strings.Contains(zetaLine, "0.0") || strings.Contains(zetaLine, "10.0") {
		t.Fatalf("zeta rate: %q", zetaLine)
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"}, {512, "512B"}, {2048, "2.0KiB"},
		{3 << 20, "3.0MiB"}, {5 << 30, "5.0GiB"},
	}
	for _, c := range cases {
		if got := fmtBytes(c.n); got != c.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
