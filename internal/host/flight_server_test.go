package host

import (
	"encoding/json"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"dxml/internal/flight"
	"dxml/internal/obs"
	"dxml/internal/transport"
)

// TestDebugFlightEndpoint drives a real session through a server with a
// flight recorder and reads the live ring back over /debug/flight: the
// frames of the session just run are there, decoded, newest ones last.
func TestDebugFlightEndpoint(t *testing.T) {
	rec := flight.NewRecorder(flight.Options{RingFrames: 1024})
	srv, base := newTestServer(t, Config{Obs: obs.New(), Observer: rec})

	d := miniDesign(1, 200)
	c, err := transport.Dial(srv.Addr().String(), transport.Config{Digest: d.Digest, Chunk: 4096})
	if err != nil {
		t.Fatal(err)
	}
	frag, err := c.Open(t.Context(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	// drain waits for the end frame, which is the condition the ring
	// read below needs: the host taps every frame before writing it, so
	// a frame the client has read is already in the host's ring.
	drain(t, frag)
	c.Close()

	code, ct, body := httpGet(t, base+"/debug/flight", "")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/flight: %d %s", code, ct)
	}
	var out struct {
		Total  uint64 `json:"total"`
		Frames []struct {
			WallNs int64  `json:"wall_unix_ns"`
			Dir    string `json:"dir"`
			Sess   string `json:"sess"`
			Type   string `json:"type"`
			Len    int    `json:"len"`
		} `json:"frames"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/debug/flight body: %v\n%s", err, body)
	}
	if out.Total == 0 || len(out.Frames) == 0 {
		t.Fatalf("ring empty after a real session: %s", body)
	}
	types := map[string]bool{}
	sessHex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, f := range out.Frames {
		types[f.Type] = true
		if f.Type == "undecodable" {
			t.Fatalf("ring holds an undecodable frame: %+v", f)
		}
		if !sessHex.MatchString(f.Sess) {
			t.Fatalf("sess %q is not 16 hex digits", f.Sess)
		}
		if f.Dir != "in" && f.Dir != "out" {
			t.Fatalf("dir %q", f.Dir)
		}
		if f.Len <= 0 || f.WallNs <= 0 {
			t.Fatalf("implausible frame %+v", f)
		}
	}
	for _, want := range []string{"hello", "welcome", "open", "begin", "chunk", "end"} {
		if !types[want] {
			t.Fatalf("ring missing %q frames; saw %v", want, types)
		}
	}

	// Without a recorder the endpoint is not mounted at all.
	srv2, base2 := newTestServer(t, Config{Obs: obs.New()})
	_ = srv2
	code, _, _ = httpGet(t, base2+"/debug/flight", "")
	if code != http.StatusNotFound {
		t.Fatalf("/debug/flight without a recorder: %d, want 404", code)
	}
}

// TestTenantLabelEscaping registers designs whose names carry quotes,
// newlines, backslashes, and non-ASCII, then scrapes /metrics: the
// exposition must escape exactly per the 0.0.4 grammar (raw UTF-8
// passes through; %q-style \xNN escapes must NOT appear).
func TestTenantLabelEscaping(t *testing.T) {
	reg := NewRegistry(Config{Obs: obs.New()})
	hostile := []struct{ name, escaped string }{
		{`quote"y`, `quote\"y`},
		{"line\nbreak", `line\nbreak`},
		{`back\slash`, `back\\slash`},
		{"日本語テナント", "日本語テナント"},
	}
	for i, h := range hostile {
		d := miniDesign(i+1, 4)
		d.Name = h.name
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	srv, base := newServerForRegistry(t, reg)
	_ = srv
	_, _, prom := httpGet(t, base+"/metrics", "text/plain")
	for _, h := range hostile {
		want := `tenant="` + h.escaped + `"`
		if !strings.Contains(prom, want) {
			t.Fatalf("exposition missing escaped label %q:\n%s", want, prom)
		}
	}
	if strings.Contains(prom, `\x`) || strings.Contains(prom, `\u`) {
		t.Fatalf("exposition contains Go-quoting escapes the 0.0.4 grammar forbids:\n%s", prom)
	}
}

// promLine matches every legal line of a 0.0.4 text exposition: a HELP
// or TYPE comment, or a sample `name{labels} value`. Label values may
// contain anything except a raw quote/backslash/newline (escaped forms
// \\ \" \n allowed).
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\\n])*")*\})? (NaN|[-+]?[0-9.eE+\-Inf]+))$`)

// TestMetricsGrammar lints the whole exposition line by line against
// the 0.0.4 grammar, with real traffic populating the histograms and a
// hostile tenant name in the label set — the test that would have
// caught the %q label bug.
func TestMetricsGrammar(t *testing.T) {
	reg := NewRegistry(Config{Obs: obs.New()})
	d := miniDesign(1, 2000)
	d.Name = "hostile \"tenant\"\nname"
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	srv, base := newServerForRegistry(t, reg)
	c, err := transport.Dial(srv.Addr().String(), transport.Config{Digest: d.Digest, Chunk: 64})
	if err != nil {
		t.Fatal(err)
	}
	frag, err := c.Open(t.Context(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, frag)
	c.Close()

	code, _, prom := httpGet(t, base+"/metrics", "text/plain")
	if code != http.StatusOK {
		t.Fatalf("scrape: %d", code)
	}
	for i, line := range strings.Split(prom, "\n") {
		if line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d violates the 0.0.4 grammar: %q", i+1, line)
		}
	}
}

// newServerForRegistry boots a Server over an already-populated
// registry (newTestServer always registers its own design-1).
func newServerForRegistry(t *testing.T, reg *Registry) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	srv := NewServer(reg, ln, httpLn)
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + srv.HTTPAddr().String()
}
