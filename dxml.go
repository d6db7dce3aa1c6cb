package dxml

import (
	"dxml/internal/axml"
	"dxml/internal/core"
	"dxml/internal/design"
	"dxml/internal/flight"
	"dxml/internal/gen"
	"dxml/internal/host"
	"dxml/internal/live"
	"dxml/internal/obs"
	"dxml/internal/p2p"
	"dxml/internal/schema"
	"dxml/internal/stream"
	"dxml/internal/strlang"
	"dxml/internal/transport"
	"dxml/internal/transport/chaos"
	"dxml/internal/uta"
	"dxml/internal/xmltree"
)

// Trees and documents (Section 2.1.1).
type (
	// Tree is a finite ordered unranked labeled tree.
	Tree = xmltree.Tree
)

// Regular string languages (Section 2.1.2).
type (
	// Symbol is an alphabet symbol (a plain string).
	Symbol = strlang.Symbol
	// NFA is a nondeterministic finite automaton with ε-transitions.
	NFA = strlang.NFA
	// DFA is a partial deterministic finite automaton.
	DFA = strlang.DFA
	// Regex is a regular expression AST (nRE).
	Regex = strlang.Regex
	// Box is a cartesian product of symbol sets.
	Box = strlang.Box
)

// Schema abstractions (Section 2.2).
type (
	// Kind is the content-model formalism R ∈ {nFA, dFA, nRE, dRE}.
	Kind = schema.Kind
	// Content is a content model in one of the four formalisms.
	Content = schema.Content
	// DTD is an R-DTD (Definition 3).
	DTD = schema.DTD
	// EDTD is an R-EDTD (Definition 7); single-type EDTDs are R-SDTDs
	// (Definition 6).
	EDTD = schema.EDTD
)

// The four content-model formalisms.
const (
	KindNFA = schema.KindNFA
	KindDFA = schema.KindDFA
	KindNRE = schema.KindNRE
	KindDRE = schema.KindDRE
)

// Distributed documents (Section 2.3).
type (
	// Kernel is a kernel document T[f1,…,fn].
	Kernel = axml.Kernel
	// KernelString is a kernel string w0 f1 w1 … fn wn.
	KernelString = axml.KernelString
	// KernelBox is a kernel box B0 f1 B1 … fn Bn (Section 7).
	KernelBox = axml.KernelBox
)

// Design problems (Sections 3–7).
type (
	// Typing maps a kernel's functions to types (Section 2.3).
	Typing = core.Typing
	// WordTyping types the functions of a kernel string.
	WordTyping = core.WordTyping
	// ConsResult is the outcome of a cons[S] decision (Definition 11).
	ConsResult = core.ConsResult
	// WordDesign is a top-down design over a kernel string (Section 5).
	WordDesign = core.WordDesign
	// DynamicResult holds the limit languages of a self-referential
	// typing (Section 8).
	DynamicResult = core.DynamicResult
	// BoxDesign is a top-down design over a kernel box (Section 7).
	BoxDesign = core.BoxDesign
	// DTDDesign is a top-down R-DTD design (Section 4.1).
	DTDDesign = core.DTDDesign
	// SDTDDesign is a top-down R-SDTD design (Section 4.2).
	SDTDDesign = core.SDTDDesign
	// EDTDDesign is a top-down R-EDTD design (Section 4.3).
	EDTDDesign = core.EDTDDesign
	// PerfectAutomaton is Ω(A, w) (Section 6, Algorithm 1).
	PerfectAutomaton = core.PerfectAutomaton
	// Cell is a nonempty cell of the Dec(Ωi) decomposition (Section 6.1).
	Cell = core.Cell
	// Kappa assigns specialized-name sets to kernel nodes (Definition 19).
	Kappa = core.Kappa
)

// Design is a parsed design file (internal/design specifies the
// format): the kernel, the global type and the typing, each parsed at
// most once, and the one place a design becomes a federation
// (Design.Network).
type Design = design.Design

// ParseDesign reads a design file; ErrWordClass refuses a tree operation
// on a word-class design.
var ParseDesign, ErrWordClass = design.Parse, design.ErrWordClass

// Distributed validation substrate.
type (
	// Network is an Active XML federation (in-process peers by default;
	// see ServeTCP/DialTCP and Network.Transport for the real wire).
	Network = p2p.Network
	// ResourcePeer owns one docking point's document and local type.
	ResourcePeer = p2p.ResourcePeer
	// Totals is a consistent copy of a federation's traffic counters.
	Totals = p2p.Totals
	// Sampler draws random valid documents from a type.
	Sampler = gen.Sampler
)

// Streaming validation (one pass, memory proportional to document depth,
// not size; see internal/stream).
type (
	// StreamMachine is an EDTD compiled for streaming validation.
	StreamMachine = stream.Machine
	// StreamRunner consumes one document's SAX-style events.
	StreamRunner = stream.Runner
	// StreamHandler receives StartElement/Text/EndElement events; sources
	// resolve each tag label to a StreamSym once (Resolve) and pass it
	// to every StartElement of that label.
	StreamHandler = stream.Handler
	// StreamSym is a label resolved by a StreamHandler; for a
	// StreamRunner, the machine-local index of the element label.
	StreamSym = stream.Sym
	// Feeder is the push-parser front-end: it accepts a document's bytes
	// in arbitrary chunks (Feed) as a network delivers them; Close
	// finalizes the verdict. Obtain one with StreamMachine.NewFeeder
	// (validating) or NewFeeder/NewInnerFeeder (custom handlers).
	Feeder = stream.Feeder
)

// Chunked fragment transport (the wire's frame budget).
const (
	// DefaultChunkSize is the fragment frame budget when
	// Network.ChunkSize is zero.
	DefaultChunkSize = p2p.DefaultChunkSize
	// Unchunked ships each fragment as a single frame (the monolithic
	// pre-chunking wire).
	Unchunked = p2p.Unchunked
	// DefaultWindow is the credit window when Network.Window is zero:
	// how many chunks a sender may have on the wire beyond the
	// receiver's cumulative ack. The receiver acks once every
	// max(1, window/2) consumed chunks, and the sender writes the chunks
	// each ack's credit allows in one vectored write. Window 1
	// degenerates to stop-and-wait; the default keeps the pipe full
	// across round trips.
	DefaultWindow = p2p.DefaultWindow
)

// Wire transport (internal/transport): the federation's verdicts and
// chunked fragment streams run over a Session — in-process by default,
// or real TCP between a hosting process (Network.ServeTCP) and a
// joining kernel peer (Network.DialTCP), as driven by `dxml serve` and
// `dxml join`.
type (
	// TransportSession is the kernel peer's connection to the peers
	// behind the docking points: verdict requests and fragment streams.
	// Assign one to Network.Transport to validate over it.
	TransportSession = transport.Session
	// TransportFragment is the receiver side of one chunked fragment
	// transfer (Next/Abort with synchronous backpressure).
	TransportFragment = transport.Fragment
	// TransportSource is the sender side of one hosted docking point:
	// verdicts and the document's serialization, shipped in chunks (see
	// Network.HostSources).
	TransportSource = transport.Source
	// PeerHost serves resource peers over TCP (see Network.ServeTCP).
	PeerHost = transport.Host
	// TimeoutError is a liveness failure on the TCP session: which
	// operation missed the deadline and after how long. It unwraps to
	// ErrTimeout.
	TimeoutError = transport.TimeoutError
)

// Session liveness (deadlines + heartbeats on the TCP wire).
var (
	// ErrTimeout is the sentinel every liveness failure unwraps to: a
	// peer missed its deadline. errors.Is(err, ErrTimeout) distinguishes
	// a dead peer from a protocol error or a clean close.
	ErrTimeout = transport.ErrTimeout
	// ErrUnknownDesign is the sentinel a refused hello unwraps to when
	// the host does not serve the dialed design's digest.
	ErrUnknownDesign = transport.ErrUnknownDesign
	// ErrOverCapacity is the sentinel a refused hello (or stream) unwraps
	// to when the host's admission control rejects it: back off and
	// retry, the host is alive but full.
	ErrOverCapacity = transport.ErrOverCapacity
	// ErrInvalidWindow is the typed rejection of a nonsensical credit
	// window (negative Network.Window, or a non-positive -window flag):
	// configuration errors surface at dial/flag time, never as a wire
	// stall.
	ErrInvalidWindow = p2p.ErrInvalidWindow
)

// Multi-tenant federation hosting (internal/host): one server process
// keeps a registry of designs keyed by the digest every session hello
// carries, shares one compiled validator per design across all of its
// sessions, enforces admission caps and resident-memory budgets with
// typed refusals, evicts idle designs LRU, and reports per-tenant and
// global counters over HTTP — the machinery behind `dxml host` and
// `dxml register`.
type (
	// HostRegistry is the multi-tenant core: designs keyed by digest,
	// admission control, LRU residency, counters. It implements the
	// transport's Router, so one listener serves every registered design.
	HostRegistry = host.Registry
	// HostConfig is the admission-control and budget policy (zero caps
	// mean unlimited).
	HostConfig = host.Config
	// HostDesign is one registered tenant: name, digest, and the builder
	// that materializes its serving state on first use.
	HostDesign = host.Design
	// HostServer is the process-level host: the registry behind one TCP
	// federation listener plus the HTTP health/metrics endpoint.
	HostServer = host.Server
	// HostMetrics is the host-wide snapshot /metrics serves.
	HostMetrics = host.Metrics
	// HostTenantMetrics is one design's externally visible state.
	HostTenantMetrics = host.TenantMetrics
	// HostCounters is one scope's (tenant or global) traffic counters,
	// mirroring the protocol-level Stats clients keep.
	HostCounters = host.CounterSnapshot
	// RefusedError is a hello refused by the host: the machine-readable
	// code plus the reason; it unwraps to ErrUnknownDesign or
	// ErrOverCapacity.
	RefusedError = transport.RefusedError
)

var (
	// NewHostRegistry builds an empty design registry under a config's
	// caps.
	NewHostRegistry = host.NewRegistry
	// NewHostServer serves a registry's designs on a TCP listener, with
	// an optional HTTP listener for /healthz and /metrics.
	NewHostServer = host.NewServer
	// ErrDuplicateDesign is the sentinel Register's duplicate-digest
	// refusal unwraps to (the /register endpoint maps it to 409).
	ErrDuplicateDesign = host.ErrDuplicateDesign
	// ErrDuplicateName is the sentinel for a taken tenant name.
	ErrDuplicateName = host.ErrDuplicateName
)

// Telemetry (internal/obs): an allocation-free observability substrate —
// atomic counters, fixed-bucket latency/size histograms, and a
// ring-buffered structured trace — threaded through the transport, the
// federation, the live session, and the multi-tenant host. A nil *Obs is
// the no-op sink: every hook degrades to a nil check, so uninstrumented
// runs pay nothing. Assign one to Network.Obs / HostConfig.Obs and read
// it back as Prometheus text (WritePrometheus, or the host's /metrics
// with Accept: text/plain), expvar/pprof (ObsDebugServer), or JSONL
// trace spans (OpenTrace) whose trace IDs stitch one fragment's timeline
// across the two processes of a TCP session.
type (
	// Obs is the telemetry collector; nil is the no-op sink.
	Obs = obs.Collector
	// ObsTraceLog is a structured span sink: an in-memory ring plus an
	// optional JSONL writer. Attach with Obs.SetTrace.
	ObsTraceLog = obs.TraceLog
	// ObsSpan is one trace event: a named interval with the session's
	// trace ID, so sender and receiver spans stitch into one timeline.
	ObsSpan = obs.Span
	// ObsHistSnapshot is a histogram's consistent copy (count, sum,
	// power-of-two buckets, quantile estimates).
	ObsHistSnapshot = obs.HistSnapshot
)

var (
	// NewObs builds an active collector (use nil for the no-op sink).
	NewObs = obs.New
	// OpenTrace creates a JSONL span log at path; attach it with
	// Obs.SetTrace and Close it on shutdown (the CLI's -trace flag).
	OpenTrace = obs.OpenTrace
	// NewTraceLog builds a span log over any writer (tests use a buffer).
	NewTraceLog = obs.NewTraceLog
	// WritePrometheus renders a collector in Prometheus text exposition
	// format 0.0.4.
	WritePrometheus = obs.WritePrometheus
	// ObsDebugServer starts a standalone pprof+expvar HTTP server (the
	// CLI's -debug-http flag on serve and join).
	ObsDebugServer = obs.DebugServer
)

// BuildVersion reports the version string stamped at link time with
// -ldflags "-X dxml/internal/obs.Version=v1.2.3" ("dev" otherwise); the
// host's /healthz and the expvar dump carry it.
func BuildVersion() string { return obs.Version }

const (
	// DefaultHeartbeat is the client ping interval through idle
	// stretches (Config.Heartbeat zero value).
	DefaultHeartbeat = transport.DefaultHeartbeat
	// DefaultTimeout is the session liveness window (deadline on every
	// frame read and write).
	DefaultTimeout = transport.DefaultTimeout
)

// Fault injection (internal/transport/chaos): deterministic, seed-driven
// wrappers that inject connection drops, delays, truncation, stalled
// acks, and duplicate delivery — the chaos seam behind `dxml serve
// -chaos` and the differential fault corpus in the tests.
var (
	// NewChaosListener wraps a listener so accepted connections are
	// seed-deterministically doomed to die after a byte budget — the
	// host side of `dxml serve -chaos seed`.
	NewChaosListener = chaos.NewListener
)

// ChaosListener is the fault-injecting listener NewChaosListener
// returns; SetOnFault hooks its injected drops into the flight
// recorder's postmortem dumper.
type ChaosListener = chaos.Listener

// Flight recorder (internal/flight): the federation's black box. A
// FlightRecorder observes every wire frame (TCP and pipe sessions) into a
// bounded ring and an optional full capture file; on any typed failure
// the process dumps a postmortem bundle — frames, trace spans, metrics
// — that `dxml inspect` decodes and `dxml replay` re-validates offline.
type (
	// TransportObserver is the wire's one observation seam: it receives
	// every frame a TCP or pipe session writes or reads and every
	// abnormal session death. Assign one to Network.Observer or
	// HostConfig.Observer (the FlightRecorder implements it).
	TransportObserver = transport.Observer
	// TransportEvent is one observed frame or session failure.
	TransportEvent = transport.Event
	// FlightRecorder is the bounded frame ring + capture sink; nil
	// records nothing.
	FlightRecorder = flight.Recorder
	// FlightOptions bounds a recorder (ring frames, per-frame bytes).
	FlightOptions = flight.Options
	// FlightFrame is one recorded frame: direction, session trace ID,
	// timestamps, and the (possibly cap-truncated) wire bytes.
	FlightFrame = flight.Frame
	// FlightRecord is one capture-file entry.
	FlightRecord = flight.Record
	// FlightBundle is a postmortem: frames + spans + metrics in one
	// self-contained JSON artifact.
	FlightBundle = flight.Bundle
	// FlightDumper writes postmortem bundles on typed failures, bounded
	// by a dump limit.
	FlightDumper = flight.Dumper
	// FrameInfo is one wire frame decoded for inspection.
	FrameInfo = transport.FrameInfo
	// ObsMetricsSnapshot is a collector's point-in-time export, the
	// metrics half of a postmortem bundle.
	ObsMetricsSnapshot = obs.MetricsSnapshot
)

var (
	// NewFlightRecorder builds a bounded flight recorder.
	NewFlightRecorder = flight.NewRecorder
	// ReadCaptureFile decodes a binary capture file from disk.
	ReadCaptureFile = flight.ReadCaptureFile
	// ReadCapture decodes a capture byte stream.
	ReadCapture = flight.ReadCapture
	// ReadBundle loads a postmortem bundle JSON from disk.
	ReadBundle = flight.ReadBundle
	// ClassifyFailure names a typed failure ("timeout", "refused",
	// "injected", "codec", or "error") for bundle kinds and filenames.
	ClassifyFailure = flight.Classify
	// DecodeFrame decodes one frame's wire bytes for inspection; it
	// handles capture-truncated frames gracefully and never panics.
	DecodeFrame = transport.DecodeFrame
	// FrameTypeName names a wire frame-type byte ("chunk", "ack", ...).
	FrameTypeName = transport.FrameTypeName
	// ErrCodec is the sentinel structural frame-decode failures unwrap
	// to: garbage on the wire, as opposed to truncation or timeout.
	ErrCodec = transport.ErrCodec
	// EscapeLabelValue escapes a string for a quoted Prometheus label
	// value (backslash, quote, newline — the 0.0.4 grammar's escapes).
	EscapeLabelValue = obs.EscapeLabelValue
)

// Live federation (internal/live + the live session mode): editing
// peers publish subtree edits over prefix-labeled node addresses, and
// the kernel peer maintains the global verdict by incremental
// revalidation instead of re-validating the extension from scratch.
type (
	// LiveEditor is a peer's edit publisher: a versioned, prefix-labeled
	// document plus the ordered edit log subscribers drain. Attach one
	// with Network.AttachEditor; then Network.OpenLive subscribes to it
	// over any transport.
	LiveEditor = live.Editor
	// LiveEdit is one entry of an edit log: a subtree replace, insert,
	// or delete at a stable prefix address.
	LiveEdit = live.Edit
	// LiveDoc is a versioned, prefix-labeled fragment replica.
	LiveDoc = live.Doc
	// LiveFederation is the kernel peer's live session: fragment
	// replicas plus the incrementally revalidated global verdict (see
	// Network.OpenLive).
	LiveFederation = p2p.LiveFederation
	// LiveUpdate reports one applied edit: the verdict after it, the
	// revalidated-vs-skipped byte split, and the wire cost. Its Health
	// field reports feed transitions (stale, recovered, down) during
	// outages.
	LiveUpdate = p2p.LiveUpdate
	// Health is a live feed's state transition: HealthLive for ordinary
	// per-edit updates, HealthStale while a dropped feed reconnects,
	// HealthRecovered after catch-up, HealthDown when recovery failed.
	Health = p2p.Health
	// ReconnectPolicy governs live-feed recovery: exponential backoff
	// with jitter between resubscription attempts (Network.Reconnect).
	// The zero value disables reconnection.
	ReconnectPolicy = p2p.ReconnectPolicy
	// Incremental is a checkpointed result tree: per-node content-DFA
	// summaries over a document or a kernel extension, updated in
	// O(edit + ancestor chain) per subtree edit (see
	// StreamMachine.NewIncremental and NewKernelIncremental).
	Incremental = stream.Incremental
)

// The live edit operations.
const (
	OpReplace = live.OpReplace
	OpInsert  = live.OpInsert
	OpDelete  = live.OpDelete
)

// The live feed health transitions.
const (
	HealthLive      = p2p.HealthLive
	HealthStale     = p2p.HealthStale
	HealthRecovered = p2p.HealthRecovered
	HealthDown      = p2p.HealthDown
)

// NewLiveEditor wraps a document in a fresh live editor.
var NewLiveEditor = live.NewEditor

// Unranked tree automata (Section 2.1.3).
type (
	// NUTA is a nondeterministic unranked tree automaton.
	NUTA = uta.NUTA
	// DUTA is its bottom-up determinization.
	DUTA = uta.DUTA
)

// Parsing and construction helpers.
var (
	// ParseTree parses the paper's term syntax, e.g. "s0(a f1 b(f2))".
	ParseTree = xmltree.Parse
	// MustParseTree panics on error.
	MustParseTree = xmltree.MustParse
	// ParseXML reads an XML document's element structure.
	ParseXML = xmltree.ParseXML

	// ParseRegex parses the concrete regex syntax ("a, b* | c?").
	ParseRegex = strlang.ParseRegex
	// MustParseRegex panics on error.
	MustParseRegex = strlang.MustParseRegex
	// RegexNFA is the Glushkov construction.
	RegexNFA = strlang.RegexNFA
	// RegexString renders a regex.
	RegexString = strlang.RegexString
	// RegexFromNFA recovers a regex by state elimination.
	RegexFromNFA = strlang.RegexFromNFA
	// DisplayRegex renders an automaton's language readably.
	DisplayRegex = strlang.DisplayRegex
	// Equivalent decides string-language equivalence with a witness.
	Equivalent = strlang.Equivalent
	// Included decides string-language inclusion; on failure it returns
	// the shortest witness, least by symbol names among those.
	Included = strlang.Included
	// RegexDeterministic is the syntactic dRE test.
	RegexDeterministic = strlang.RegexDeterministic
	// OneUnambiguous decides one-unamb[R] (Definition 2).
	OneUnambiguous = strlang.OneUnambiguous
	// BuildDRE constructs a deterministic regular expression when one
	// exists (Proposition 3.6).
	BuildDRE = strlang.BuildDRE

	// ParseDTD parses the arrow-grammar notation of the paper's figures.
	ParseDTD = schema.ParseDTD
	// MustParseDTD panics on error.
	MustParseDTD = schema.MustParseDTD
	// ParseW3CDTD parses <!ELEMENT …> declarations (Figure 3).
	ParseW3CDTD = schema.ParseW3CDTD
	// MustParseW3CDTD panics on error.
	MustParseW3CDTD = schema.MustParseW3CDTD
	// ParseEDTD parses the arrow-grammar notation with specializations.
	ParseEDTD = schema.ParseEDTD
	// MustParseEDTD panics on error.
	MustParseEDTD = schema.MustParseEDTD
	// Normalize produces the normalized EDTD of Lemma 4.10.
	Normalize = schema.Normalize
	// EquivalentDTD decides equiv[R-DTD] (Proposition 4.1).
	EquivalentDTD = schema.EquivalentDTD
	// EquivalentSDTD decides equiv[R-SDTD].
	EquivalentSDTD = schema.EquivalentSDTD
	// EquivalentEDTD decides equiv[R-EDTD] (Theorem 4.7).
	EquivalentEDTD = schema.EquivalentEDTD

	// ParseKernel parses a kernel document ("eurostat(f0 f1)").
	ParseKernel = axml.ParseKernel
	// MustParseKernel panics on error.
	MustParseKernel = axml.MustParseKernel
	// ParseKernelString parses a kernel string ("a f1 c f2 e").
	ParseKernelString = axml.ParseKernelString
	// MustParseKernelString panics on error.
	MustParseKernelString = axml.MustParseKernelString

	// Compose builds T(τn) (Section 3.1, Theorem 3.2).
	Compose = core.Compose
	// ConsEDTD decides cons[R-EDTD] and builds typeT(τn) (Corollary 3.3).
	ConsEDTD = core.ConsEDTD
	// ConsSDTD decides cons[R-SDTD] (Theorem 3.10).
	ConsSDTD = core.ConsSDTD
	// ConsDTD decides cons[R-DTD] (Theorem 3.13).
	ConsDTD = core.ConsDTD
	// DTDTyping lifts DTD local types into a typing.
	DTDTyping = core.DTDTyping
	// RootContent returns the forest language a type allows its function
	// to contribute.
	RootContent = core.RootContent
	// MustWordTyping parses regexes into a word typing.
	MustWordTyping = core.MustWordTyping
	// MustWordDesign builds a word design from a regex and a kernel
	// string.
	MustWordDesign = core.MustWordDesign
	// NewWordDesign builds a word design.
	NewWordDesign = core.NewWordDesign
	// NewBoxDesign builds a box design.
	NewBoxDesign = core.NewBoxDesign
	// BuildPerfect constructs the perfect automaton Ω(A, B).
	BuildPerfect = core.BuildPerfect
	// DecomposeCells enumerates the nonempty Dec cells (Figure 8).
	DecomposeCells = core.DecomposeCells
	// SolveRecursiveTyping solves self-referential types (Section 8).
	SolveRecursiveTyping = core.SolveRecursiveTyping
	// DynamicExtensionLang computes the documents reachable by repeated
	// extension of a self-referential design (Section 8).
	DynamicExtensionLang = core.DynamicExtensionLang

	// NewNetwork builds a simulated federation.
	NewNetwork = p2p.NewNetwork
	// NewSampler builds a random-document sampler for a type.
	NewSampler = gen.New

	// CompileStream compiles an EDTD into a reusable streaming validator
	// (single-type EDTDs get the deterministic one-pass fast path).
	CompileStream = stream.Compile
	// NewFeeder builds a push parser forwarding events to a handler.
	NewFeeder = stream.NewFeeder
	// NewInnerFeeder builds a push parser that skips the root element's
	// own events (the forest a docking point contributes).
	NewInnerFeeder = stream.NewInnerFeeder
	// FeedReader pumps a reader through a Feeder in chunks and closes it.
	FeedReader = stream.FeedReader
	// StreamXML feeds one XML document's events from a reader into a
	// handler.
	StreamXML = stream.StreamXML
	// StreamXMLInner feeds the events inside a document's root (the forest
	// a docking point contributes).
	StreamXMLInner = stream.StreamXMLInner
	// StreamTree feeds a materialized tree's events into a handler.
	StreamTree = stream.StreamTree
	// StreamTreeInner feeds the events below a tree's root (the forest a
	// local fragment contributes at its docking point).
	StreamTreeInner = stream.StreamTreeInner
	// StreamKernel streams a kernel document's extension, pausing at each
	// docking point for the caller to inject the fragment's events.
	StreamKernel = stream.StreamKernel
)
