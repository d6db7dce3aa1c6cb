package p2p

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dxml/internal/xmltree"
)

// liveSetup builds the eurostat federation with an editor on every
// peer.
func liveSetup(t testing.TB, chunk int) *Network {
	t.Helper()
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{2, 3, 1})
	n.ChunkSize = chunk
	for _, fn := range n.Kernel.Funcs() {
		if _, err := n.AttachEditor(fn); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// editScript applies `steps` seeded random edits through the editors of
// `served`, one at a time; after each it waits for the kernel peer's
// update on lv and asserts the maintained verdict against from-scratch
// validation of the materialized extension. It returns the verdict
// sequence.
func editScript(t *testing.T, seed int64, steps int, served *Network, lv *LiveFederation) []bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	funcs := served.Kernel.Funcs()
	payloads := []string{
		"nationalIndex(country Good value year)",
		"nationalIndex(country Good index(value year))",
		"index(value year)",
		"zz",
		"nationalIndex(country)", // invalid content
	}
	var verdicts []bool
	for step := 0; step < steps; step++ {
		fn := funcs[r.Intn(len(funcs))]
		ed := served.Peers[fn].Live
		tree := ed.Tree()
		paths := treePaths(tree)
		path := paths[r.Intn(len(paths))]
		var err error
		switch op := r.Intn(3); {
		case op == 0:
			parent := treeAt(tree, path)
			_, err = ed.InsertChild(path, r.Intn(len(parent.Children)+1), xmltree.MustParse(payloads[r.Intn(len(payloads))]))
		case op == 1 && len(path) > 0:
			_, err = ed.DeleteSubtree(path)
		default:
			payload := xmltree.MustParse(payloads[r.Intn(len(payloads))])
			if len(path) == 0 {
				payload = xmltree.New(tree.Label, payload) // keep the local root label
			}
			_, err = ed.ReplaceSubtree(path, payload)
		}
		if err != nil {
			t.Fatalf("step %d (%s): edit: %v", step, fn, err)
		}
		up := awaitEditUpdate(t, lv, step)
		if up.Fn != fn {
			t.Fatalf("step %d: update from %s, edited %s", step, up.Fn, fn)
		}
		// The acceptance pin: maintained verdict == from-scratch
		// validation of the materialized extension.
		ext := map[string]*xmltree.Tree{}
		for _, f := range funcs {
			ext[f] = served.Peers[f].Live.Tree()
		}
		extDoc, eerr := served.Kernel.Extend(ext)
		if eerr != nil {
			t.Fatal(eerr)
		}
		want := served.GlobalMachine().ValidateTree(extDoc) == nil
		if up.Valid != want {
			t.Fatalf("step %d (%s %s): incremental verdict %v, from-scratch %v",
				step, fn, up.Op, up.Valid, want)
		}
		if lv.Valid() != want {
			t.Fatalf("step %d: LiveFederation.Valid() stale", step)
		}
		if up.Revalidated+up.Skipped == 0 {
			t.Fatalf("step %d: empty recheck accounting", step)
		}
		verdicts = append(verdicts, up.Valid)
	}
	return verdicts
}

// awaitEditUpdate waits for the next HealthLive update — an applied
// edit — skipping the health transitions (stale/recovered) a faulted
// run interleaves with them. Any terminal feed error is fatal.
func awaitEditUpdate(t *testing.T, lv *LiveFederation, step int) LiveUpdate {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case up, ok := <-lv.Updates():
			if !ok {
				t.Fatalf("step %d: updates closed early", step)
			}
			if up.Err != nil {
				t.Fatalf("step %d: feed error: %v", step, up.Err)
			}
			if up.Health != HealthLive {
				continue
			}
			return up
		case <-deadline:
			t.Fatalf("step %d: no update for edit", step)
		}
	}
}

func treePaths(t *xmltree.Tree) [][]int {
	var out [][]int
	var rec func(n *xmltree.Tree, path []int)
	rec = func(n *xmltree.Tree, path []int) {
		out = append(out, append([]int(nil), path...))
		for i, c := range n.Children {
			rec(c, append(path, i))
		}
	}
	rec(t, nil)
	return out
}

func treeAt(t *xmltree.Tree, path []int) *xmltree.Tree {
	for _, i := range path {
		t = t.Children[i]
	}
	return t
}

// TestLiveFederationDifferential is the acceptance criterion across
// both transports: the same seeded edit script runs over the in-process
// session and over TCP loopback, and on both wires the verdict after
// every edit equals from-scratch validation — so the two verdict
// sequences are also identical to each other — and the per-edit wire
// and recheck accounting agree byte for byte.
func TestLiveFederationDifferential(t *testing.T) {
	const seed, steps = 443, 60
	run := func(t *testing.T, served, kernelSide *Network) ([]bool, Totals) {
		pre := kernelSide.Stats.Totals()
		lv, err := kernelSide.OpenLive(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer lv.Close()
		if !lv.Valid() {
			t.Fatal("initial live verdict should be valid")
		}
		verdicts := editScript(t, seed, steps, served, lv)
		post := kernelSide.Stats.Totals()
		return verdicts, diffTotals(post, pre)
	}
	var inprocVerdicts, tcpVerdicts []bool
	var inprocTotals, tcpTotals Totals
	t.Run("inproc", func(t *testing.T) {
		n := liveSetup(t, 64)
		inprocVerdicts, inprocTotals = run(t, n, n)
	})
	t.Run("tcp", func(t *testing.T) {
		served := liveSetup(t, 64)
		joined, shutdown := serveFederation(t, served)
		defer shutdown()
		tcpVerdicts, tcpTotals = run(t, served, joined)
	})
	if len(inprocVerdicts) != len(tcpVerdicts) {
		t.Fatalf("verdict sequences diverge in length: %d vs %d", len(inprocVerdicts), len(tcpVerdicts))
	}
	for i := range inprocVerdicts {
		if inprocVerdicts[i] != tcpVerdicts[i] {
			t.Fatalf("verdict %d differs between transports: inproc %v, tcp %v",
				i, inprocVerdicts[i], tcpVerdicts[i])
		}
	}
	if inprocTotals != tcpTotals {
		t.Fatalf("live traffic differs between transports:\ninproc %+v\ntcp    %+v", inprocTotals, tcpTotals)
	}
}

// TestLiveVerdictUpdateReachesEditor: the editing site learns the
// kernel peer's verdict through the verdict-update frames.
func TestLiveVerdictUpdateReachesEditor(t *testing.T) {
	served := liveSetup(t, 0)
	joined, shutdown := serveFederation(t, served)
	defer shutdown()
	lv, err := joined.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	ed := served.Peers["f1"].Live
	if _, err := ed.ReplaceSubtree([]int{0}, xmltree.Leaf("zz")); err != nil {
		t.Fatal(err)
	}
	up := <-lv.Updates()
	if up.Valid {
		t.Fatal("foreign subtree accepted")
	}
	if !up.Changed {
		t.Fatal("verdict transition not flagged")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	valid, err := ed.AwaitVerdict(ctx, up.Version)
	if err != nil {
		t.Fatalf("verdict update never reached the editor: %v", err)
	}
	if valid {
		t.Fatal("editor told the federation is valid after an invalidating edit")
	}
}

// TestLiveEditLocalityOnBigFragment pins the acceptance numbers on a
// 10⁵-node fragment: a single-leaf edit revalidates ≤ 1% of the
// extension (by the revalidator's own accounting) and ships
// O(edit + depth) bytes — here under 200 — on the wire.
func TestLiveEditLocalityOnBigFragment(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{33000, 2, 1}) // f1: ~10⁵ nodes
	for _, fn := range n.Kernel.Funcs() {
		if _, err := n.AttachEditor(fn); err != nil {
			t.Fatal(err)
		}
	}
	lv, err := n.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if !lv.Valid() {
		t.Fatal("initial verdict should be valid")
	}
	total := lv.inc.TotalBytes()
	if lv.inc.NodeCount() < 100_000 {
		t.Fatalf("fixture too small: %d nodes", lv.inc.NodeCount())
	}
	// Replace one leaf deep inside the big fragment.
	if _, err := n.Peers["f1"].Live.ReplaceSubtree([]int{17000, 1}, xmltree.Leaf("Good")); err != nil {
		t.Fatal(err)
	}
	up := <-lv.Updates()
	if up.Err != nil || !up.Valid {
		t.Fatalf("leaf edit: %+v", up)
	}
	if up.Revalidated*100 > total {
		t.Fatalf("leaf edit revalidated %d of %d bytes (> 1%%)", up.Revalidated, total)
	}
	if up.WireBytes > 200 {
		t.Fatalf("leaf edit shipped %d bytes (want O(edit + depth), < 200)", up.WireBytes)
	}
}

// TestLiveCloseIsClean: closing mid-stream stops the drains without
// wedging editors or leaking updates.
func TestLiveCloseIsClean(t *testing.T) {
	n := liveSetup(t, 0)
	lv, err := n.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Peers["f2"].Live.ReplaceSubtree(nil, xmltree.MustParse("root3(nationalIndex(country Good value year))")); err != nil {
		t.Fatal(err)
	}
	<-lv.Updates()
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-lv.Updates(); ok {
		// Drain to the close; any buffered updates are fine, the
		// channel just has to close.
		for range lv.Updates() {
		}
	}
	// Editors keep working after the session is gone.
	if _, err := n.Peers["f2"].Live.DeleteSubtree([]int{0}); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLiveRequiresEditors: subscribing to a peer without an editor
// fails with a clear error rather than wedging.
func TestOpenLiveRequiresEditors(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{1, 1, 1})
	if _, err := n.OpenLive(context.Background()); err == nil {
		t.Fatal("OpenLive without editors should fail")
	}
}

// TestOpenLiveFailureLeavesNoGoroutine: an in-process OpenLive that
// fails part-way (one peer has no editor, so its subscription is
// refused after the others succeeded) closes the pipe it dialed, and
// with it the host side, the read loop and the heartbeat.
func TestOpenLiveFailureLeavesNoGoroutine(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{1, 1, 1})
	funcs := n.Kernel.Funcs()
	for _, fn := range funcs[:len(funcs)-1] {
		if _, err := n.AttachEditor(fn); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	if _, err := n.OpenLive(context.Background()); err == nil {
		t.Fatal("OpenLive with a peer lacking an editor should fail")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before OpenLive, %d after:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
