package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dxml"
)

// startEurostatServe hosts the Figure 1 federation's documents from
// temp files on an ephemeral loopback port — the `dxml serve` half of
// the walkthrough, driven in process.
func startEurostatServe(t *testing.T, docs []string) (*dxml.Design, *serveInstance) {
	t.Helper()
	df := load(t, "eurostat.design")
	dir := t.TempDir()
	funcs := df.Funcs()
	if len(docs) != len(funcs) {
		t.Fatalf("need %d documents, got %d", len(funcs), len(docs))
	}
	assigns := make([]string, len(funcs))
	for i, fn := range funcs {
		path := filepath.Join(dir, fn+".term")
		if err := os.WriteFile(path, []byte(docs[i]), 0o600); err != nil {
			t.Fatal(err)
		}
		assigns[i] = fn + "=" + path
	}
	srv, err := startServe(df, assigns, "127.0.0.1:0", dxml.DefaultWindow, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.funcs) != len(funcs) {
		t.Fatalf("hosted %v, want all of %v", srv.funcs, funcs)
	}
	t.Cleanup(func() { srv.host.Close() })
	return df, srv
}

var eurostatValidDocs = []string{
	"root1(averages(Good index(value year)))",
	"root2(nationalIndex(country Good value year))",
	"root3(nationalIndex(country Good index(value year)))",
	"root4",
}

// TestServeJoinLoopback is the CLI half of the acceptance criterion:
// `dxml join` against a loopback `dxml serve` prints the same verdicts
// and the same per-protocol wire report as the in-process run on the
// same documents.
func TestServeJoinLoopback(t *testing.T) {
	df, srv := startEurostatServe(t, eurostatValidDocs)
	out, err := RunJoin(df, srv.host.Addr().String(), nil, 16, dxml.DefaultWindow, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: valid") || !strings.Contains(out, "centralized: valid") {
		t.Fatalf("join output:\n%s", out)
	}
	// The in-process reference on the same corpus must report the exact
	// same traffic, line for line.
	docs := make([]*dxml.Tree, len(eurostatValidDocs))
	for i, src := range eurostatValidDocs {
		docs[i] = dxml.MustParseTree(src)
	}
	want, err := RunValidateDistributed(df, docs, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("TCP join and in-process reports differ:\n--- join ---\n%s--- in-process ---\n%s", out, want)
	}
}

// TestServeJoinRejection: an invalid hosted document is rejected over
// the wire mid-transfer, with the saved bytes reported.
func TestServeJoinRejection(t *testing.T) {
	bad := make([]string, len(eurostatValidDocs))
	copy(bad, eurostatValidDocs)
	bad[1] = "root2(nationalIndex(country))"
	// A fat valid document behind the failure: its bytes must be saved.
	var fat strings.Builder
	fat.WriteString("root4(")
	for i := 0; i < 200; i++ {
		fat.WriteString("nationalIndex(country Good value year) ")
	}
	fat.WriteString(")")
	bad[3] = fat.String()
	df, srv := startEurostatServe(t, bad)
	out, err := RunJoin(df, srv.host.Addr().String(), nil, 16, dxml.DefaultWindow, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: invalid") || !strings.Contains(out, "centralized: invalid") {
		t.Fatalf("join output:\n%s", out)
	}
	if !strings.Contains(out, "saved by mid-transfer rejection") {
		t.Fatalf("expected bytes saved over the wire:\n%s", out)
	}
}

// TestJoinPeerFlagRouting splits the federation across two hosts: -peer
// mappings override -connect per docking point.
func TestJoinPeerFlagRouting(t *testing.T) {
	df, srvA := startEurostatServe(t, eurostatValidDocs)
	_, srvB := startEurostatServe(t, eurostatValidDocs)
	out, err := RunJoin(df, srvA.host.Addr().String(),
		map[string]string{"f2": srvB.host.Addr().String()}, 0, dxml.DefaultWindow, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: valid") || !strings.Contains(out, "centralized: valid") {
		t.Fatalf("split-host join output:\n%s", out)
	}
}

func TestJoinErrors(t *testing.T) {
	df, srv := startEurostatServe(t, eurostatValidDocs)
	addr := srv.host.Addr().String()

	// A join running a different design is refused at the hello.
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
	if _, err := RunJoin(other, addr, nil, 0, dxml.DefaultWindow, false); err == nil ||
		!strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("mismatched design should fail the hello, got %v", err)
	}

	// Missing addresses and bad chunk budgets fail fast.
	if _, err := RunJoin(df, "", nil, 0, dxml.DefaultWindow, false); err == nil {
		t.Error("join with no addresses should fail")
	}
	if _, err := RunJoin(df, addr, nil, -5, dxml.DefaultWindow, false); err == nil ||
		!strings.Contains(err.Error(), "-chunk") {
		t.Errorf("-chunk -5 should be rejected, got %v", err)
	}
}

// TestServeChaosDrill drives `dxml join` against a `dxml serve -chaos`
// host: the fault injector dooms roughly half the accepted sessions, so
// each attempt must either report the true verdicts or fail with a
// clean error — and with the injector's acceptance odds, a bounded
// number of retries reaches a fault-free verdict.
func TestServeChaosDrill(t *testing.T) {
	df := load(t, "eurostat.design")
	dir := t.TempDir()
	funcs := df.Funcs()
	assigns := make([]string, len(funcs))
	for i, fn := range funcs {
		path := filepath.Join(dir, fn+".term")
		if err := os.WriteFile(path, []byte(eurostatValidDocs[i]), 0o600); err != nil {
			t.Fatal(err)
		}
		assigns[i] = fn + "=" + path
	}
	srv, err := startServe(df, assigns, "127.0.0.1:0", dxml.DefaultWindow, 99, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.host.Close()
	for attempt := 0; attempt < 12; attempt++ {
		out, err := RunJoin(df, srv.host.Addr().String(), nil, 16, dxml.DefaultWindow, false)
		if err != nil {
			continue // a doomed session: clean error, try again
		}
		if !strings.Contains(out, "distributed: valid") || !strings.Contains(out, "centralized: valid") {
			t.Fatalf("chaos must never corrupt a verdict:\n%s", out)
		}
		return
	}
	t.Fatal("no join attempt survived 12 tries against the chaos listener")
}

func TestServeErrors(t *testing.T) {
	df := load(t, "eurostat.design")
	if _, err := serveNetwork(df, []string{"nonsense"}); err == nil {
		t.Error("malformed assignment should fail")
	}
	if _, err := serveNetwork(df, []string{"f9=/dev/null"}); err == nil {
		t.Error("unknown docking point should fail")
	}
	if _, err := serveNetwork(df, nil); err == nil {
		t.Error("empty serve should fail")
	}
}

// TestValidateChunkFlag pins the CLI input-validation fix: budgets
// below -1 were silently treated as unchunked; now they error.
func TestValidateChunkFlag(t *testing.T) {
	for _, ok := range []int{-1, 0, 1, 16, 4096} {
		if err := validateChunkFlag(ok); err != nil {
			t.Errorf("chunk %d should be accepted: %v", ok, err)
		}
	}
	for _, bad := range []int{-2, -5, -4096} {
		if err := validateChunkFlag(bad); err == nil {
			t.Errorf("chunk %d should be rejected", bad)
		}
	}
}

// TestValidateWindowFlag: a credit window is a positive chunk count;
// zero and negatives are refused at flag time with the typed sentinel,
// never passed on to stall a transfer before its first chunk.
func TestValidateWindowFlag(t *testing.T) {
	for _, ok := range []int{1, 2, dxml.DefaultWindow, 4096} {
		if err := validateWindowFlag(ok); err != nil {
			t.Errorf("window %d should be accepted: %v", ok, err)
		}
	}
	for _, bad := range []int{0, -1, -32} {
		err := validateWindowFlag(bad)
		if err == nil {
			t.Errorf("window %d should be rejected", bad)
			continue
		}
		if !errors.Is(err, dxml.ErrInvalidWindow) {
			t.Errorf("window %d: rejection is not the typed sentinel: %v", bad, err)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: JoinLive writes from its
// own goroutine while the test polls String.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeWatchJoinLive is the CLI walkthrough of the live mode: a
// serve watching its document files re-serves a file change as subtree
// edits, and a joined -watch kernel peer prints the verdict transition
// those edits cause — then shuts down cleanly when its context is
// canceled (the SIGINT path).
func TestServeWatchJoinLive(t *testing.T) {
	df, srv := startEurostatServe(t, eurostatValidDocs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.watch(ctx, 5*time.Millisecond, func(string, ...any) {})

	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- JoinLive(ctx, df, srv.host.Addr().String(), nil, 0, dxml.DefaultWindow, 8, true, buf, nil, nil)
	}()

	// Wait for the subscription to come up, then break f1's document
	// on disk; the watcher should re-serve it as edits and the join
	// should report the transition to invalid.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(buf.String(), "initial verdict valid") {
		if time.Now().After(deadline) {
			t.Fatalf("join never reported the initial verdict:\n%s", buf.String())
		}
		time.Sleep(time.Millisecond)
	}
	// Bump mtime into the future so the 5ms poller can't miss it on
	// coarse filesystem clocks.
	path := srv.files["f1"]
	if err := os.WriteFile(path, []byte("root2(nationalIndex(country))"), 0o600); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	for !strings.Contains(buf.String(), "transition to invalid") {
		if time.Now().After(deadline) {
			t.Fatalf("join never saw the verdict transition:\n%s", buf.String())
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(buf.String(), "revalidated") {
		t.Fatalf("-stats recheck line missing:\n%s", buf.String())
	}
	// The SIGINT path: canceling the context ends JoinLive cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("JoinLive: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("JoinLive did not shut down on cancel")
	}
	if !strings.Contains(buf.String(), "closing sessions") {
		t.Fatalf("shutdown line missing:\n%s", buf.String())
	}
}
