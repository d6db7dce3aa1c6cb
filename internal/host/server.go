package host

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"dxml/internal/flight"
	"dxml/internal/obs"
	"dxml/internal/transport"
)

// Server is the process-level host: the registry served over one TCP
// federation listener (every registered design behind one port), plus
// an optional HTTP listener exposing health and metrics. Extend the
// HTTP surface with Handle before traffic arrives.
type Server struct {
	reg      *Registry
	host     *transport.Host
	mux      *http.ServeMux
	hsrv     *http.Server
	httpLn   net.Listener
	start    time.Time
	debug    bool
	reserved []string
}

// NewServer starts serving the registry's designs on ln; httpLn, when
// non-nil, serves /healthz and /metrics. Both listeners may be bound to
// port 0 — Addr and HTTPAddr report what the OS picked. The registry's
// Obs collector, when set, backs the Prometheus exposition on /metrics
// and receives the transport host's wire-level telemetry.
func NewServer(reg *Registry, ln, httpLn net.Listener) *Server {
	s := &Server{reg: reg, httpLn: httpLn, start: time.Now(),
		reserved: []string{"/healthz", "/metrics", "/debug/"}}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/metrics", s.metrics)
	if ring, ok := reg.cfg.Observer.(flightRing); ok {
		s.mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) { debugFlight(w, ring) })
	}
	s.host = transport.NewHost(ln, reg.hostConfig())
	if httpLn != nil {
		s.hsrv = &http.Server{Handler: s.mux}
		go s.hsrv.Serve(httpLn)
	}
	return s
}

// hostConfig is how the registry's sessions are served, over TCP
// (NewServer) or in process (Session) alike.
func (r *Registry) hostConfig() transport.HostConfig {
	return transport.HostConfig{Router: r, Timeout: r.cfg.Timeout, Window: r.cfg.Window, Obs: r.cfg.Obs,
		Observer: r.cfg.Observer}
}

// Session opens an in-process session against the registry: a
// transport.Pipe served exactly as NewServer serves a TCP hello, so
// admission, routing, stream caps, accounting, deadlines, the observer
// and obs are the wire's own. An unknown digest is refused with
// transport.ErrUnknownDesign and an over-budget hello with
// transport.ErrOverCapacity. Close the session to release its
// admission slot; Close returns once it is released.
func (r *Registry) Session(digest []byte, chunk int) (*transport.Conn, error) {
	return transport.Pipe(r.hostConfig(), transport.Config{Digest: digest, Chunk: chunk})
}

// Registry is the server's design registry.
func (s *Server) Registry() *Registry { return s.reg }

// Addr is the federation listener's address (the port kernel peers
// join).
func (s *Server) Addr() net.Addr { return s.host.Addr() }

// HTTPAddr is the HTTP listener's address, nil when metrics are off.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Handle mounts an extra HTTP handler on the server's mux (the CLI
// mounts /register here). It panics if pattern would shadow one of the
// server's own endpoints (/healthz, /metrics, /debug/...) or a pattern
// already mounted through Handle, so a later extension cannot silently
// capture health, telemetry, or registration traffic. Mount before the
// first request; ServeMux is not safe for concurrent registration and
// serving.
func (s *Server) Handle(pattern string, h http.Handler) {
	for _, r := range s.reserved {
		if pattern == r || strings.HasPrefix(pattern, strings.TrimSuffix(r, "/")+"/") {
			panic(fmt.Sprintf("host: pattern %q would shadow reserved endpoint %s", pattern, r))
		}
	}
	s.reserved = append(s.reserved, pattern)
	s.mux.Handle(pattern, h)
}

// EnableDebug mounts net/http/pprof and expvar under /debug/ on the
// server's HTTP mux and publishes the registry's collector to expvar.
// Call at most once, before traffic; the endpoints expose internals and
// should stay behind the operator's -debug-http flag.
func (s *Server) EnableDebug() {
	if s.debug {
		return
	}
	s.debug = true
	obs.MountDebug(s.mux)
	obs.PublishExpvar(s.reg.cfg.Obs)
}

// Close stops both listeners and tears down every session.
func (s *Server) Close() error {
	err := s.host.Close()
	if s.hsrv != nil {
		s.hsrv.Close()
	}
	return err
}

// health is the /healthz body: liveness plus the load numbers a
// balancer wants.
type health struct {
	Status         string  `json:"status"`
	Version        string  `json:"version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Designs        int     `json:"designs"`
	Resident       int     `json:"resident"`
	ActiveSessions int     `json:"activeSessions"`
}

func (s *Server) healthz(w http.ResponseWriter, req *http.Request) {
	m := s.reg.Metrics()
	writeJSON(w, health{
		Status:         "ok",
		Version:        obs.Version,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Designs:        m.Designs,
		Resident:       m.Resident,
		ActiveSessions: m.ActiveSessions,
	})
}

// metrics content-negotiates: Accept: text/plain (Prometheus scrapers)
// gets the 0.0.4 text exposition from the registry's collector plus
// per-tenant admission rollups; everything else gets the original JSON
// body, byte-compatible with earlier releases.
func (s *Server) metrics(w http.ResponseWriter, req *http.Request) {
	if c := s.reg.cfg.Obs; c != nil && wantsProm(req) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, c)
		fmt.Fprintf(w, "# HELP dxml_uptime_seconds Seconds since the host started.\n# TYPE dxml_uptime_seconds gauge\ndxml_uptime_seconds %g\n", time.Since(s.start).Seconds())
		for name, snap := range s.reg.TenantAdmissionHists() {
			// Label values use the exposition format's own escaper, not
			// Go's %q: %q would emit \xNN/\uXXXX escapes the 0.0.4
			// grammar forbids for non-ASCII or control-laden names.
			obs.WriteHistProm(w, "dxml_tenant_admission_latency_seconds",
				"Per-tenant admission (routing) latency.",
				`tenant="`+obs.EscapeLabelValue(name)+`"`, snap, true)
		}
		return
	}
	writeJSON(w, s.reg.Metrics())
}

// flightFrame is one ring entry in the /debug/flight body: the frame
// decoded just far enough to read the timeline without shipping raw
// payloads over HTTP.
type flightFrame struct {
	WallNs    int64  `json:"wall_unix_ns"`
	Dir       string `json:"dir"`
	Sess      string `json:"sess"` // session trace ID, hex
	Type      string `json:"type"`
	Stream    uint32 `json:"stream,omitempty"`
	Len       int    `json:"len"`
	Truncated bool   `json:"truncated,omitempty"`
}

// flightRing is the live frame ring an observer may hold (a
// *flight.Recorder does): what /debug/flight serves.
type flightRing interface {
	Frames() []flight.Frame
	Total() uint64
}

// debugFlight serves the flight recorder's live ring as JSON: the most
// recent frames across every session, oldest first.
func debugFlight(w http.ResponseWriter, rec flightRing) {
	frames := rec.Frames()
	out := struct {
		Total  uint64        `json:"total"`
		Frames []flightFrame `json:"frames"`
	}{Total: rec.Total(), Frames: make([]flightFrame, 0, len(frames))}
	for _, f := range frames {
		ff := flightFrame{WallNs: f.WallNs, Dir: f.Dir.String(),
			Sess: fmt.Sprintf("%016x", f.Sess), Len: f.Orig}
		if info, err := transport.DecodeFrame(f.Wire); err != nil {
			ff.Type = "undecodable"
		} else {
			ff.Type, ff.Stream, ff.Truncated = info.Type, info.Stream, info.Truncated
		}
		out.Frames = append(out.Frames, ff)
	}
	writeJSON(w, out)
}

// wantsProm reports whether the request prefers Prometheus text
// exposition: an Accept header naming text/plain (and not naming
// application/json earlier in the list).
func wantsProm(req *http.Request) bool {
	for _, part := range strings.Split(req.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "text/plain":
			return true
		case "application/json":
			return false
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
