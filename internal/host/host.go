// Package host turns the single-design transport host into a
// multi-tenant federation host: one server process keeps a registry of
// compiled designs keyed by the design digest every session hello
// already carries, routes each incoming session — validation, live,
// reconnect/resume alike — to its tenant, and shares one immutable
// compiled validator per design across all of that design's sessions.
//
// The registry is the admission controller: caps on concurrent
// sessions, open transfers, and estimated resident memory (per tenant
// and global) refuse an over-budget hello with a typed error on the
// wire — transport.ErrOverCapacity, never a hang — and idle compiled
// designs are evicted least-recently-used when the resident budget
// needs room, then rebuilt on the next hello. Per-tenant and global
// counters are a reducer over each session's transport events, counting
// the traffic the kernel peer's p2p.Stats counts at the byte costs
// transport defines, so a tenant's metrics and its clients' stats agree
// on fully delivered traffic, one-shot and live (a reconnect's recovery
// traffic, which Stats leaves out, is counted here), and the chunks a
// host counts are exactly the chunk frames its observer captures.
package host

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dxml/internal/obs"
	"dxml/internal/transport"
)

// Registration errors, matchable with errors.Is so the HTTP register
// endpoint can map them to precise status codes.
var (
	// ErrDuplicateDesign: the digest is already registered (409 on the
	// register endpoint).
	ErrDuplicateDesign = errors.New("design digest already registered")
	// ErrDuplicateName: the metrics name is already taken.
	ErrDuplicateName = errors.New("design name already registered")
)

// Config is the host's admission-control and budget policy. Every cap
// is optional: zero means unlimited.
type Config struct {
	// MaxSessions caps concurrent sessions across all tenants.
	MaxSessions int
	// MaxTenantSessions caps concurrent sessions per tenant.
	MaxTenantSessions int
	// MaxStreams caps concurrent open transfers (fragment streams and
	// live subscriptions) across all tenants. Each admitted transfer is
	// credit-windowed: it can hold up to Window×chunk-budget bytes in
	// flight toward its client, so MaxStreams×Window×chunk bounds the
	// host's aggregate in-flight exposure.
	MaxStreams int
	// MaxTenantStreams caps concurrent open transfers per tenant.
	MaxTenantStreams int
	// MaxResidentBytes caps the summed resident estimate of
	// materialized designs; idle designs are evicted LRU to fit a new
	// one, and a hello that cannot fit even after eviction is refused.
	MaxResidentBytes int64
	// MaxResidentDesigns caps how many designs are materialized at
	// once, independent of their byte estimates.
	MaxResidentDesigns int
	// Timeout is the per-session liveness window handed to the
	// transport host (zero: transport.DefaultTimeout).
	Timeout time.Duration
	// Window caps the per-stream credit window this host honors,
	// whatever a client's hello grants (zero: no cap beyond the
	// transport-wide maximum). Lowering it trades throughput for a
	// tighter per-transfer memory bound — see MaxStreams.
	Window int
	// Obs, when non-nil, receives the registry's telemetry — eviction
	// counts and per-tenant admission-latency rollups — and is handed to
	// the transport host so wire-level metrics land in the same
	// collector. Nil (the default) is the no-op sink.
	Obs *obs.Collector
	// Observer, when non-nil, observes every session's wire frames and
	// abnormal deaths (refused hello, liveness timeout, codec error,
	// injected fault): typically a flight recorder and the
	// postmortem-dump trigger. When it also holds a frame ring, as a
	// *flight.Recorder does (Frames and Total), the HTTP server exposes
	// the live ring at /debug/flight. Nil (the default) observes
	// nothing.
	Observer transport.Observer
}

// Design is one registered tenant: a name for metrics, the digest its
// sessions present at hello, and a builder that materializes the
// serving state on first use. Build is called at most once per
// residency (again after an eviction); it returns the docking-point
// sources and an estimate of the resident bytes they pin (documents
// plus compiled validators).
type Design struct {
	Name   string
	Digest []byte
	Build  func() (sources map[string]transport.Source, residentBytes int64, err error)
}

// counters is one scope's (tenant or global) monotonic traffic
// counters. Fields are atomics so the hot per-chunk path never takes
// the registry lock.
type counters struct {
	sessions   atomic.Int64 // admitted sessions, lifetime
	verdicts   atomic.Int64 // answered verdict requests
	messages   atomic.Int64 // protocol messages (verdicts, delivered fragments, subscriptions, edits, verdict updates)
	frames     atomic.Int64 // wire frames (messages + chunks)
	bytes      atomic.Int64 // payload bytes shipped
	delivered  atomic.Int64 // fully delivered fragments/snapshots
	edits      atomic.Int64 // live edits shipped
	rejections atomic.Int64 // refused hellos and refused streams
	reconnects atomic.Int64 // admitted resume subscriptions
	evictions  atomic.Int64 // residency evictions
}

// count is the traffic reducer: one session event into one scope.
// Chunks are frames; the other counted kinds are messages, each one
// frame, at the byte cost the event carries.
func (c *counters) count(ev transport.Event) {
	switch ev.Kind {
	case transport.Chunk:
		c.frames.Add(1)
		c.bytes.Add(int64(ev.Cost))
		return
	case transport.Resumed:
		c.reconnects.Add(1)
		return
	case transport.Verdict:
		c.verdicts.Add(1)
	case transport.Delivered:
		c.delivered.Add(1)
	case transport.Edit:
		c.edits.Add(1)
	case transport.Subscribed, transport.VerdictUpdate:
	default:
		return
	}
	c.messages.Add(1)
	c.frames.Add(1)
	c.bytes.Add(int64(ev.Cost))
}

// CounterSnapshot is a consistent-enough copy of one scope's counters
// (each field is read atomically; the set is not a single atomic cut,
// which metrics polling does not need).
type CounterSnapshot struct {
	Sessions   int64 `json:"sessions"`
	Verdicts   int64 `json:"verdicts"`
	Messages   int64 `json:"messages"`
	Frames     int64 `json:"frames"`
	Bytes      int64 `json:"bytes"`
	Delivered  int64 `json:"delivered"`
	Edits      int64 `json:"edits"`
	Rejections int64 `json:"rejections"`
	Reconnects int64 `json:"reconnects"`
	Evictions  int64 `json:"evictions"`
}

func (c *counters) snapshot() CounterSnapshot {
	return CounterSnapshot{
		Sessions:   c.sessions.Load(),
		Verdicts:   c.verdicts.Load(),
		Messages:   c.messages.Load(),
		Frames:     c.frames.Load(),
		Bytes:      c.bytes.Load(),
		Delivered:  c.delivered.Load(),
		Edits:      c.edits.Load(),
		Rejections: c.rejections.Load(),
		Reconnects: c.reconnects.Load(),
		Evictions:  c.evictions.Load(),
	}
}

// tenant is one registered design's serving state.
type tenant struct {
	spec     Design
	counters counters
	adm      obs.Histogram // admission (routing) latency rollup, nanoseconds

	// Guarded by the registry lock:
	sources       map[string]transport.Source // nil until materialized
	resident      int64                       // Build's estimate while materialized
	active        int                         // concurrent sessions
	activeStreams int                         // concurrent open transfers
	lastUse       uint64                      // registry LRU clock at last session close
}

// Registry is the multi-tenant core: designs keyed by digest, admission
// control, LRU residency, and counters. It implements transport.Router,
// so a transport.Host with Router set serves every registered design on
// one listener. The zero Config means no caps.
type Registry struct {
	cfg    Config
	global counters

	mu             sync.Mutex
	tenants        map[string]*tenant // keyed by string(digest)
	byName         map[string]*tenant
	seq            uint64 // LRU clock, bumped at each session close
	resident       int    // materialized designs
	residentBytes  int64  // summed Build estimates
	activeSessions int
	activeStreams  int
}

// NewRegistry builds an empty registry under cfg's caps.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, tenants: map[string]*tenant{}, byName: map[string]*tenant{}}
}

// Config returns the registry's admission policy.
func (r *Registry) Config() Config { return r.cfg }

// Register adds a design. Names and digests must both be unique: the
// digest is the routing key, the name the metrics key.
func (r *Registry) Register(d Design) error {
	if d.Name == "" {
		return fmt.Errorf("host: design needs a name")
	}
	if len(d.Digest) == 0 {
		return fmt.Errorf("host: design %s needs a digest", d.Name)
	}
	if d.Build == nil {
		return fmt.Errorf("host: design %s needs a builder", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[string(d.Digest)]; ok {
		return fmt.Errorf("host: digest %s already registered as %s: %w", hex.EncodeToString(d.Digest), t.spec.Name, ErrDuplicateDesign)
	}
	if _, ok := r.byName[d.Name]; ok {
		return fmt.Errorf("host: %w: %s", ErrDuplicateName, d.Name)
	}
	t := &tenant{spec: d}
	r.tenants[string(d.Digest)] = t
	r.byName[d.Name] = t
	return nil
}

// Len is the number of registered designs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// refuse records a rejection against the global (and, when known, the
// tenant) counters and builds the typed refusal.
func (r *Registry) refuse(t *tenant, code transport.RefuseCode, reason string) error {
	r.global.rejections.Add(1)
	if t != nil {
		t.counters.rejections.Add(1)
	}
	return &transport.RefusedError{Code: code, Reason: reason}
}

// Route implements transport.Router: it resolves a session hello to its
// tenant, enforcing the session caps and the residency budget. The
// refusal is always immediate — admission control answers the hello, it
// never parks it.
func (r *Registry) Route(digest []byte) (transport.Route, error) {
	start := r.cfg.Obs.Nanos()
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[string(digest)]
	if !ok {
		return transport.Route{}, r.refuse(nil, transport.RefuseUnknownDesign,
			"no design registered under this digest")
	}
	if r.cfg.Obs != nil {
		// Per-tenant rollup: lock wait plus digest lookup is the part a
		// tenant's sessions actually contend on. The registry observes
		// only the tenant-labelled rollup — the transport host already
		// feeds the global admission histogram for the same hello, so
		// observing both here would double-count it.
		defer func() { t.adm.Observe(r.cfg.Obs.Nanos() - start) }()
	}
	if r.cfg.MaxSessions > 0 && r.activeSessions >= r.cfg.MaxSessions {
		return transport.Route{}, r.refuse(t, transport.RefuseOverCapacity,
			fmt.Sprintf("host session cap reached (%d concurrent)", r.cfg.MaxSessions))
	}
	if r.cfg.MaxTenantSessions > 0 && t.active >= r.cfg.MaxTenantSessions {
		return transport.Route{}, r.refuse(t, transport.RefuseOverCapacity,
			fmt.Sprintf("tenant %s session cap reached (%d concurrent)", t.spec.Name, r.cfg.MaxTenantSessions))
	}
	if err := r.materializeLocked(t); err != nil {
		return transport.Route{}, err
	}
	t.active++
	r.activeSessions++
	t.counters.sessions.Add(1)
	r.global.sessions.Add(1)
	var once sync.Once
	g := &gate{reg: r, t: t}
	return transport.Route{
		Sources:  t.sources,
		Gate:     g,
		Observer: g,
		Close:    func() { once.Do(func() { r.sessionClosed(t) }) },
	}, nil
}

// sessionClosed releases a session's slot and stamps the tenant's LRU
// clock: eviction order is "least recently finished a session".
func (r *Registry) sessionClosed(t *tenant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t.active--
	r.activeSessions--
	r.seq++
	t.lastUse = r.seq
}

// materializeLocked ensures t's sources are built, evicting idle
// tenants LRU to make room under the residency caps. Called with the
// registry lock held; Build runs under it too, which serializes design
// compilation — first-session latency, never steady-state.
func (r *Registry) materializeLocked(t *tenant) error {
	if t.sources != nil {
		return nil
	}
	srcs, resident, err := t.spec.Build()
	if err != nil {
		r.global.rejections.Add(1)
		t.counters.rejections.Add(1)
		return fmt.Errorf("host: building design %s: %w", t.spec.Name, err)
	}
	if r.cfg.MaxResidentDesigns > 0 {
		r.evictLocked(func() bool { return r.resident >= r.cfg.MaxResidentDesigns })
		if r.resident >= r.cfg.MaxResidentDesigns {
			return r.refuse(t, transport.RefuseOverCapacity,
				fmt.Sprintf("resident design cap reached (%d, none idle to evict)", r.cfg.MaxResidentDesigns))
		}
	}
	if r.cfg.MaxResidentBytes > 0 {
		r.evictLocked(func() bool { return r.residentBytes+resident > r.cfg.MaxResidentBytes })
		if r.residentBytes+resident > r.cfg.MaxResidentBytes {
			return r.refuse(t, transport.RefuseOverCapacity,
				fmt.Sprintf("resident memory budget exhausted (%d of %d bytes in use, design needs %d)",
					r.residentBytes, r.cfg.MaxResidentBytes, resident))
		}
	}
	t.sources, t.resident = srcs, resident
	r.resident++
	r.residentBytes += resident
	return nil
}

// evictLocked drops idle materialized tenants in LRU order while the
// pressure predicate holds and an idle candidate exists. Tenants with
// active sessions are never evicted; their sessions hold the source map
// by reference, so an eviction only releases the registry's copy.
func (r *Registry) evictLocked(pressure func() bool) {
	for pressure() {
		var victim *tenant
		for _, t := range r.tenants {
			if t.sources == nil || t.active > 0 {
				continue
			}
			if victim == nil || t.lastUse < victim.lastUse {
				victim = t
			}
		}
		if victim == nil {
			return
		}
		victim.sources = nil
		r.residentBytes -= victim.resident
		victim.resident = 0
		r.resident--
		victim.counters.evictions.Add(1)
		r.global.evictions.Add(1)
		r.cfg.Obs.Add(obs.CEvictions, 1)
	}
}

// gate is one session's transport.Gate and route observer: stream
// admission under the transfer caps, and traffic accounting into both
// scopes.
type gate struct {
	reg *Registry
	t   *tenant
}

func (g *gate) OpenStream(fn string) error {
	r := g.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.MaxStreams > 0 && r.activeStreams >= r.cfg.MaxStreams {
		return r.refuse(g.t, transport.RefuseOverCapacity,
			fmt.Sprintf("host open-transfer cap reached (%d concurrent)", r.cfg.MaxStreams))
	}
	if r.cfg.MaxTenantStreams > 0 && g.t.activeStreams >= r.cfg.MaxTenantStreams {
		return r.refuse(g.t, transport.RefuseOverCapacity,
			fmt.Sprintf("tenant %s open-transfer cap reached (%d concurrent)", g.t.spec.Name, r.cfg.MaxTenantStreams))
	}
	r.activeStreams++
	g.t.activeStreams++
	return nil
}

func (g *gate) CloseStream(fn string) {
	r := g.reg
	r.mu.Lock()
	r.activeStreams--
	g.t.activeStreams--
	r.mu.Unlock()
}

func (g *gate) Observe(ev transport.Event) {
	g.t.counters.count(ev)
	g.reg.global.count(ev)
}

// TenantAdmissionHists snapshots every tenant's admission-latency
// rollup histogram, keyed by design name — the per-tenant series the
// Prometheus exposition renders with a tenant label.
func (r *Registry) TenantAdmissionHists() map[string]obs.HistSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]obs.HistSnapshot, len(r.tenants))
	for _, t := range r.tenants {
		out[t.spec.Name] = t.adm.Snapshot()
	}
	return out
}

// TenantMetrics is one design's externally visible state.
type TenantMetrics struct {
	Name           string          `json:"name"`
	Digest         string          `json:"digest"` // hex
	Resident       bool            `json:"resident"`
	ResidentBytes  int64           `json:"residentBytes"`
	ActiveSessions int             `json:"activeSessions"`
	ActiveStreams  int             `json:"activeStreams"`
	Counters       CounterSnapshot `json:"counters"`
}

// Metrics is the host-wide snapshot the /metrics endpoint serves.
type Metrics struct {
	Designs        int                      `json:"designs"`
	Resident       int                      `json:"resident"`
	ResidentBytes  int64                    `json:"residentBytes"`
	ActiveSessions int                      `json:"activeSessions"`
	ActiveStreams  int                      `json:"activeStreams"`
	Global         CounterSnapshot          `json:"global"`
	Tenants        map[string]TenantMetrics `json:"tenants"` // keyed by design name
}

// Metrics snapshots the registry: registration, residency, admission
// state, and both counter scopes.
func (r *Registry) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := Metrics{
		Designs:        len(r.tenants),
		Resident:       r.resident,
		ResidentBytes:  r.residentBytes,
		ActiveSessions: r.activeSessions,
		ActiveStreams:  r.activeStreams,
		Global:         r.global.snapshot(),
		Tenants:        make(map[string]TenantMetrics, len(r.tenants)),
	}
	for _, t := range r.tenants {
		m.Tenants[t.spec.Name] = TenantMetrics{
			Name:           t.spec.Name,
			Digest:         hex.EncodeToString(t.spec.Digest),
			Resident:       t.sources != nil,
			ResidentBytes:  t.resident,
			ActiveSessions: t.active,
			ActiveStreams:  t.activeStreams,
			Counters:       t.counters.snapshot(),
		}
	}
	return m
}
