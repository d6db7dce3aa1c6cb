package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"dxml"
)

// runHost implements `dxml host`: one server process serving many
// designs on one port. Each positional argument registers one tenant
// (a design file plus its documents); more tenants can be registered at
// runtime through the HTTP /register endpoint (`dxml register`).
// Sessions are routed by the design digest their hello carries, and
// admission control refuses over-budget hellos with a typed error.
func runHost(args []string) {
	fs := flag.NewFlagSet("dxml host", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9400", "TCP address for federation sessions (use :0 for an ephemeral port)")
	httpAddr := fs.String("http", "", "HTTP address for /healthz, /metrics, /register (empty: no HTTP endpoint)")
	maxSessions := fs.Int("max-sessions", 0, "cap on concurrent sessions across all tenants (0 = unlimited)")
	maxTenantSessions := fs.Int("max-tenant-sessions", 0, "cap on concurrent sessions per tenant (0 = unlimited)")
	maxStreams := fs.Int("max-streams", 0, "cap on concurrent open transfers across all tenants (0 = unlimited)")
	maxTenantStreams := fs.Int("max-tenant-streams", 0, "cap on concurrent open transfers per tenant (0 = unlimited)")
	maxResidentBytes := fs.Int64("max-resident-bytes", 0, "resident-memory budget over materialized designs; idle designs are evicted LRU to fit (0 = unlimited)")
	maxResidentDesigns := fs.Int("max-resident-designs", 0, "cap on concurrently materialized designs (0 = unlimited)")
	window := fs.Int("window", dxml.DefaultWindow, "credit window cap in chunks granted to any transfer (bounds per-stream sender memory to window x chunk)")
	chaosSeed := fs.Int64("chaos", 0, "fault-injection seed: accepted connections are deterministically doomed to drop (0 = off)")
	traceFile := fs.String("trace", "", "append JSONL trace spans (session hello, per-fragment open/chunks/verdict) to this file")
	debugHTTP := fs.Bool("debug-http", false, "mount net/http/pprof and expvar under /debug/ on the -http mux")
	capture := fs.String("capture", "", "flight-record every wire frame into this directory (capture.dxfr plus postmortem bundles on typed failures); the live ring is served at /debug/flight on the -http mux")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dxml host [-listen addr] [-http addr] [caps...] [<design-file>,<fn=document>,... ...]")
		fmt.Fprintln(os.Stderr, "hosts many designs on one port; sessions are routed by design digest.")
		fmt.Fprintln(os.Stderr, "each argument is one tenant: a design file and its documents, comma-separated,")
		fmt.Fprintln(os.Stderr, "e.g.  dxml host eurostat.design,f0=avg.term,f1=fr.term library.design,f1=books.xml")
		fmt.Fprintln(os.Stderr, "register further designs at runtime: dxml register -http addr <design-file> <fn=document>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "dxml: host needs at least one tenant spec, or -http to register tenants at runtime")
		fs.Usage()
		os.Exit(2)
	}
	if err := validateWindowFlag(*window); err != nil {
		fatal(err)
	}
	if *debugHTTP && *httpAddr == "" {
		fatal(fmt.Errorf("-debug-http needs -http (the debug endpoints mount on the HTTP mux)"))
	}
	c, obsCleanup, err := obsFromFlags(*traceFile, "")
	if err != nil {
		fatal(err)
	}
	defer obsCleanup()
	if c == nil && (*httpAddr != "" || *debugHTTP) {
		// The HTTP endpoint is on: collect telemetry so /metrics can
		// serve the Prometheus exposition and /debug/vars has data.
		c = dxml.NewObs()
	}
	rig, err := newCaptureRig(*capture, c)
	if err != nil {
		fatal(err)
	}
	cfg := dxml.HostConfig{
		MaxSessions:        *maxSessions,
		MaxTenantSessions:  *maxTenantSessions,
		MaxStreams:         *maxStreams,
		MaxTenantStreams:   *maxTenantStreams,
		MaxResidentBytes:   *maxResidentBytes,
		MaxResidentDesigns: *maxResidentDesigns,
		Window:             *window,
		Obs:                c,
	}
	if rig != nil {
		cfg.Observer = rig
	}
	srv, reg, err := startHost(cfg, fs.Args(), *listen, *httpAddr, *chaosSeed, rig)
	if err != nil {
		fatal(err)
	}
	if *debugHTTP {
		srv.EnableDebug()
	}
	ctx, stop := signalContext()
	defer stop()
	if *chaosSeed != 0 {
		fmt.Printf("dxml: chaos listener armed (seed %d): sessions will drop deterministically\n", *chaosSeed)
	}
	fmt.Printf("dxml: hosting %d designs on %s\n", reg.Len(), srv.Addr())
	if a := srv.HTTPAddr(); a != nil {
		fmt.Printf("dxml: metrics on http://%s/metrics (register via /register)\n", a)
	}
	<-ctx.Done()
	stop()
	fmt.Println("dxml: signal received, closing sessions")
	srv.Close()
	rig.close()
}

// startHost builds the registry from tenant specs and starts the
// multi-tenant server; split from runHost so tests can drive it in
// process. A nonzero chaosSeed wraps the federation listener (not the
// HTTP one) in the deterministic fault injector; the rig (nil: no
// flight recording) receives the injector's fault notifications so a
// chaos drop dumps a postmortem like any other typed failure.
func startHost(cfg dxml.HostConfig, specs []string, listen, httpAddr string, chaosSeed int64, rig *captureRig) (*dxml.HostServer, *dxml.HostRegistry, error) {
	reg := dxml.NewHostRegistry(cfg)
	for _, spec := range specs {
		bundle, err := bundleFromSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		d, err := bundleDesign(bundle)
		if err != nil {
			return nil, nil, err
		}
		if err := reg.Register(d); err != nil {
			return nil, nil, err
		}
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, nil, err
	}
	if chaosSeed != 0 {
		cl := dxml.NewChaosListener(ln, chaosSeed)
		if rig != nil {
			cl.SetOnFault(rig.onError)
		}
		ln = cl
	}
	var httpLn net.Listener
	if httpAddr != "" {
		httpLn, err = net.Listen("tcp", httpAddr)
		if err != nil {
			ln.Close()
			return nil, nil, err
		}
	}
	srv := dxml.NewHostServer(reg, ln, httpLn)
	srv.Handle("/register", registerHandler(reg))
	return srv, reg, nil
}

// tenantBundle is one design's registration payload: the design file's
// text plus each hosted docking point's document text. It is what `dxml
// register` POSTs to /register, and what a CLI tenant spec is read
// into — registration is content-based, so the host never touches the
// client's filesystem.
type tenantBundle struct {
	Name   string            `json:"name"`
	Design string            `json:"design"`
	Docs   map[string]string `json:"docs"`
}

// bundleFromSpec parses one CLI tenant spec — a design file and its
// fn=docfile assignments, comma-separated — reading every file now so a
// bad spec fails at startup, not at first session.
func bundleFromSpec(spec string) (tenantBundle, error) {
	parts := strings.Split(spec, ",")
	src, err := os.ReadFile(parts[0])
	if err != nil {
		return tenantBundle{}, err
	}
	b := tenantBundle{
		Name:   strings.TrimSuffix(filepath.Base(parts[0]), filepath.Ext(parts[0])),
		Design: string(src),
		Docs:   map[string]string{},
	}
	for _, a := range parts[1:] {
		fn, path, ok := strings.Cut(a, "=")
		if !ok {
			return tenantBundle{}, fmt.Errorf("tenant %s: assignment %q: want fn=documentfile", parts[0], a)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			return tenantBundle{}, err
		}
		b.Docs[fn] = string(doc)
	}
	if len(b.Docs) == 0 {
		return tenantBundle{}, fmt.Errorf("tenant %s: no documents (spec is design-file,fn=doc,...)", parts[0])
	}
	return b, nil
}

// bundleDesign compiles a bundle into a registrable design. The design
// is parsed once, here, and every document is parsed and attached once
// to check it: a broken design or document is a registration error, not
// a routing surprise. Build keeps the parsed design and the document
// texts, and parses only the documents each time the design is
// materialized after an eviction, which exists to free them.
func bundleDesign(b tenantBundle) (dxml.HostDesign, error) {
	if b.Name == "" {
		return dxml.HostDesign{}, fmt.Errorf("tenant bundle needs a name")
	}
	d, err := dxml.ParseDesign(b.Design)
	var n *dxml.Network
	if err == nil {
		n, _, err = hostNetwork(d, b.Docs)
	}
	if err != nil {
		return dxml.HostDesign{}, fmt.Errorf("tenant %s: %w", b.Name, err)
	}
	return dxml.HostDesign{
		Name:   b.Name,
		Digest: n.Digest(),
		Build: func() (map[string]dxml.TransportSource, int64, error) {
			n, _, err := hostNetwork(d, b.Docs)
			if err != nil {
				return nil, 0, err
			}
			return n.HostSources(), n.ResidentEstimate(), nil
		},
	}, nil
}

// registerError is the structured body every /register failure carries:
// a machine-readable code (stable across releases, switch on it) plus
// the human-readable detail. The status code mirrors the failure class:
// 405 wrong method, 400 malformed JSON, 422 a well-formed bundle whose
// design or documents do not compile, 409 an already-taken digest or
// name.
type registerError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

func writeRegisterError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(registerError{Code: code, Error: err.Error()})
}

// registerHandler is the /register endpoint: POST a tenantBundle, get
// the design's routing digest back. Failures return a registerError
// body. Registration races with live traffic, so all it touches is the
// registry's own lock.
func registerHandler(reg *dxml.HostRegistry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeRegisterError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Errorf("%s not allowed: POST a tenant bundle {name, design, docs}", req.Method))
			return
		}
		var b tenantBundle
		if err := json.NewDecoder(io.LimitReader(req.Body, 16<<20)).Decode(&b); err != nil {
			writeRegisterError(w, http.StatusBadRequest, "malformed_bundle", fmt.Errorf("bad bundle: %w", err))
			return
		}
		d, err := bundleDesign(b)
		if err != nil {
			// Well-formed JSON, uncompilable content: 422, not 400.
			writeRegisterError(w, http.StatusUnprocessableEntity, "invalid_design", err)
			return
		}
		if err := reg.Register(d); err != nil {
			switch {
			case errors.Is(err, dxml.ErrDuplicateDesign):
				writeRegisterError(w, http.StatusConflict, "duplicate_digest", err)
			case errors.Is(err, dxml.ErrDuplicateName):
				writeRegisterError(w, http.StatusConflict, "duplicate_name", err)
			default:
				writeRegisterError(w, http.StatusBadRequest, "rejected", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{
			"name":   d.Name,
			"digest": hex.EncodeToString(d.Digest),
		})
	})
}

// runRegister implements `dxml register`: bundle a design file and its
// documents and POST them to a running host's /register endpoint. After
// it succeeds, `dxml join -connect <host>` with the same design file
// routes to the new tenant.
func runRegister(args []string) {
	fs := flag.NewFlagSet("dxml register", flag.ExitOnError)
	httpAddr := fs.String("http", "", "host's HTTP address (the -http a running `dxml host` printed)")
	name := fs.String("name", "", "tenant name for metrics (default: the design file's base name)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dxml register -http addr [-name tenant] <design-file> <fn=document>...")
		fmt.Fprintln(os.Stderr, "registers a design (and its documents) with a running multi-tenant host")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *httpAddr == "" || fs.NArg() < 2 {
		fs.Usage()
		os.Exit(2)
	}
	spec := strings.Join(fs.Args(), ",")
	bundle, err := bundleFromSpec(spec)
	if err != nil {
		fatal(err)
	}
	if *name != "" {
		bundle.Name = *name
	}
	digest, err := postRegister(*httpAddr, bundle)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dxml: registered %s (digest %s)\n", bundle.Name, digest)
}

// postRegister ships a bundle to a host's /register endpoint and
// returns the digest the host will route by.
func postRegister(httpAddr string, b tenantBundle) (string, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return "", err
	}
	resp, err := http.Post("http://"+httpAddr+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		var re registerError
		if json.Unmarshal(out, &re) == nil && re.Error != "" {
			return "", fmt.Errorf("register: %s (%s): %s", resp.Status, re.Code, re.Error)
		}
		return "", fmt.Errorf("register: %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	var ack struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(out, &ack); err != nil {
		return "", fmt.Errorf("register: bad response: %w", err)
	}
	return ack.Digest, nil
}
