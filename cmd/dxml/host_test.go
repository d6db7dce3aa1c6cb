package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dxml"
)

// miniDesignText builds a tiny one-peer design whose digest is unique
// per id: the kernel's docking point is named f<id>, and the digest
// covers the specialized names. items only varies the hosted document,
// not the design.
func miniDesignText(id int) string {
	return fmt.Sprintf(`class dtd
kind nRE
kernel s(f%d)
type:
root s
s -> a*
end
typing f%d:
root r
r -> a*
end
`, id, id)
}

// miniDocText is a flat local document with items leaves — fragment
// size (and so wire traffic) scales with items.
func miniDocText(items int) string {
	if items == 0 {
		return "r"
	}
	return "r(" + strings.TrimSpace(strings.Repeat("a ", items)) + ")"
}

// writeTenant writes design id's file and document under dir and
// returns the parsed design, the host tenant spec, and the serve-style
// assignment list for the same corpus.
func writeTenant(t *testing.T, dir string, id, items int) (*dxml.Design, string, []string) {
	t.Helper()
	df, err := dxml.ParseDesign(miniDesignText(id))
	if err != nil {
		t.Fatal(err)
	}
	dfPath := filepath.Join(dir, fmt.Sprintf("mini-%d.design", id))
	docPath := filepath.Join(dir, fmt.Sprintf("mini-%d.term", id))
	if err := os.WriteFile(dfPath, []byte(miniDesignText(id)), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docPath, []byte(miniDocText(items)), 0o600); err != nil {
		t.Fatal(err)
	}
	assign := fmt.Sprintf("f%d=%s", id, docPath)
	return df, dfPath + "," + assign, []string{assign}
}

// TestHostScaleFanIn is the tentpole acceptance test: one host process
// serving 100 designs on one port, 1000 concurrent join sessions fanned
// in across them, every output byte-identical to a dedicated
// single-design `dxml serve` of the same corpus.
func TestHostScaleFanIn(t *testing.T) {
	const (
		designs = 100
		joins   = 10 // concurrent joins per design
	)
	dir := t.TempDir()
	dfs := make([]*dxml.Design, designs)
	specs := make([]string, designs)
	want := make([]string, designs)
	for i := 0; i < designs; i++ {
		df, spec, assigns := writeTenant(t, dir, i, i%17)
		dfs[i], specs[i] = df, spec
		// The reference: the same design behind a plain single-design
		// serve. The host must match it byte for byte, stats included.
		ref, err := startServe(df, assigns, "127.0.0.1:0", dxml.DefaultWindow, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunJoin(df, ref.host.Addr().String(), nil, 16, dxml.DefaultWindow, true)
		ref.host.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "distributed: valid") {
			t.Fatalf("reference serve for design %d:\n%s", i, out)
		}
		want[i] = out
	}

	srv, reg, err := startHost(dxml.HostConfig{}, specs, "127.0.0.1:0", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if reg.Len() != designs {
		t.Fatalf("registered %d designs, want %d", reg.Len(), designs)
	}
	addr := srv.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < designs; i++ {
		for k := 0; k < joins; k++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := RunJoin(dfs[i], addr, nil, 16, dxml.DefaultWindow, true)
				if err != nil {
					t.Errorf("design %d: %v", i, err)
					return
				}
				if out != want[i] {
					t.Errorf("design %d: host and serve outputs differ:\n--- host ---\n%s--- serve ---\n%s", i, out, want[i])
				}
			}(i)
		}
	}
	wg.Wait()

	m := reg.Metrics()
	if m.Designs != designs {
		t.Errorf("metrics report %d designs, want %d", m.Designs, designs)
	}
	if got := m.Global.Sessions; got != designs*joins {
		t.Errorf("global sessions = %d, want %d", got, designs*joins)
	}
	if m.Global.Rejections != 0 {
		t.Errorf("unexpected rejections: %d", m.Global.Rejections)
	}
	// The server observes a client's close asynchronously (EOF on the
	// session's read loop), so drain rather than assert instantly.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Metrics().ActiveSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions leaked", reg.Metrics().ActiveSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHostServesEurostat: a multi-peer tenant (the paper's Figure 1
// federation, four docking points) behind the multi-tenant host answers
// `dxml join` byte-identically to the dedicated serve.
func TestHostServesEurostat(t *testing.T) {
	df, ref := startEurostatServe(t, eurostatValidDocs)
	want, err := RunJoin(df, ref.host.Addr().String(), nil, 16, dxml.DefaultWindow, true)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spec := filepath.Join(dir, "eurostat.design")
	src, err := os.ReadFile(filepath.Join("testdata", "eurostat.design"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec, src, 0o600); err != nil {
		t.Fatal(err)
	}
	for i, fn := range df.Funcs() {
		path := filepath.Join(dir, fn+".term")
		if err := os.WriteFile(path, []byte(eurostatValidDocs[i]), 0o600); err != nil {
			t.Fatal(err)
		}
		spec += "," + fn + "=" + path
	}
	srv, _, err := startHost(dxml.HostConfig{}, []string{spec}, "127.0.0.1:0", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out, err := RunJoin(df, srv.Addr().String(), nil, 16, dxml.DefaultWindow, true)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("host and serve outputs differ:\n--- host ---\n%s--- serve ---\n%s", out, want)
	}
}

// TestHostListenEphemeral: satellite 1 — both serve and host accept
// ":0"-style listen addresses and report the actual bound port.
func TestHostListenEphemeral(t *testing.T) {
	dir := t.TempDir()
	df, spec, assigns := writeTenant(t, dir, 1, 3)

	srv, _, err := startHost(dxml.HostConfig{}, []string{spec}, "127.0.0.1:0", "127.0.0.1:0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for what, addr := range map[string]string{
		"federation": srv.Addr().String(),
		"http":       srv.HTTPAddr().String(),
	} {
		if strings.HasSuffix(addr, ":0") {
			t.Errorf("host %s address %q still reports port 0", what, addr)
		}
	}

	serveSrv, err := startServe(df, assigns, "127.0.0.1:0", dxml.DefaultWindow, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer serveSrv.host.Close()
	if addr := serveSrv.host.Addr().String(); strings.HasSuffix(addr, ":0") {
		t.Errorf("serve address %q still reports port 0", addr)
	}
}

// TestHostRegisterRuntime drives the full registration loop: a host
// started empty, a design POSTed through /register (the `dxml register`
// path), then joined over the federation port. Before registration the
// join is refused with the typed unknown-design error; a duplicate
// registration is a clean conflict.
func TestHostRegisterRuntime(t *testing.T) {
	dir := t.TempDir()
	df, spec, _ := writeTenant(t, dir, 5, 4)

	srv, reg, err := startHost(dxml.HostConfig{}, nil, "127.0.0.1:0", "127.0.0.1:0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if reg.Len() != 0 {
		t.Fatalf("empty host has %d designs", reg.Len())
	}
	addr := srv.Addr().String()
	httpAddr := srv.HTTPAddr().String()

	// Not registered yet: the hello is refused, typed, never hung.
	if _, err := RunJoin(df, addr, nil, 16, dxml.DefaultWindow, false); !errors.Is(err, dxml.ErrUnknownDesign) {
		t.Fatalf("join before register: got %v, want ErrUnknownDesign", err)
	}

	bundle, err := bundleFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := postRegister(httpAddr, bundle)
	if err != nil {
		t.Fatal(err)
	}
	if digest == "" {
		t.Fatal("register returned an empty digest")
	}
	out, err := RunJoin(df, addr, nil, 16, dxml.DefaultWindow, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: valid") || !strings.Contains(out, "centralized: valid") {
		t.Fatalf("join after register:\n%s", out)
	}

	// Same digest again: a conflict, not a second tenant.
	if _, err := postRegister(httpAddr, bundle); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate register: got %v, want an already-registered conflict", err)
	}
	// A broken design is a registration error, not a routing surprise.
	bad := bundle
	bad.Name = "broken"
	bad.Design = "class dtd\nkind nRE\n"
	if _, err := postRegister(httpAddr, bad); err == nil {
		t.Error("broken design registered without error")
	}

	// The tenant shows up on the metrics endpoint, and health is served.
	for path, needle := range map[string]string{
		"/metrics": `"mini-5"`,
		"/healthz": `"ok"`,
	} {
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), needle) {
			t.Errorf("GET %s = %s, body %s (want %s)", path, resp.Status, body, needle)
		}
	}
}

// TestHostChaosDrill is the serve chaos drill against the multi-tenant
// host: the seeded fault injector sits in front of the host's listener,
// so sessions drop deterministically — every attempt must either report
// the true verdicts or fail with a clean error, and a bounded number of
// retries must get through.
func TestHostChaosDrill(t *testing.T) {
	dir := t.TempDir()
	df, spec, _ := writeTenant(t, dir, 9, 40)
	srv, _, err := startHost(dxml.HostConfig{}, []string{spec}, "127.0.0.1:0", "", 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for attempt := 0; attempt < 12; attempt++ {
		out, err := RunJoin(df, srv.Addr().String(), nil, 16, dxml.DefaultWindow, false)
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

// TestHostCapsOverWire: an over-capacity hello is refused with the
// typed capacity error end to end — CLI design file, TCP wire, typed
// sentinel on the client.
func TestHostCapsOverWire(t *testing.T) {
	dir := t.TempDir()
	df, spec, _ := writeTenant(t, dir, 3, 2)
	srv, reg, err := startHost(dxml.HostConfig{MaxSessions: 1}, []string{spec}, "127.0.0.1:0", "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Occupy the host's only session slot in process, then watch a wire
	// join get the typed refusal — deterministically, no racing joins.
	digest, err := df.Digest()
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.Session(digest, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunJoin(df, srv.Addr().String(), nil, 16, dxml.DefaultWindow, false); !errors.Is(err, dxml.ErrOverCapacity) {
		t.Fatalf("over-capacity join: got %v, want ErrOverCapacity", err)
	}
	s.Close()
	// Slot released: the same join now succeeds.
	out, err := RunJoin(df, srv.Addr().String(), nil, 16, dxml.DefaultWindow, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: valid") {
		t.Fatalf("join after slot release:\n%s", out)
	}
}
