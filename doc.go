// Package dxml is a Go implementation of the theory of distributed XML
// design of S. Abiteboul, G. Gottlob and M. Manna (“Distributed XML
// Design”, PODS 2009; extended version arXiv:1012.2648).
//
// A distributed XML document is a kernel document T[f1,…,fn] whose
// function-labeled leaves are docking points for external resources. This
// package answers the design questions the paper studies:
//
// Bottom-up: given local types τ1…τn for the resources, what is the global
// type of all possible materializations — and is it expressible as a DTD,
// a single-type EDTD (XML Schema), or an EDTD (Relax NG)? See Compose,
// ConsDTD, ConsSDTD, ConsEDTD.
//
// Top-down: given a global type τ, can it be enforced purely locally?
// The package decides whether a given typing is sound, local, maximal
// local or perfect, and whether such typings exist, constructing them when
// they do. See DTDDesign, SDTDDesign, EDTDDesign, WordDesign and the
// perfect-automaton machinery.
//
// Validation is push-based and incremental end to end: an EDTD compiles
// once into a streaming machine (CompileStream) whose push-parser
// front-end (Feeder) accepts a document's bytes in arbitrary chunks as a
// network delivers them and holds O(chunk + depth) memory regardless of
// document size. The io.Reader front-ends are thin adapters over it, and
// the federation (Network) ships fragments between peers in fixed-budget
// frames fed straight into the receiving validator, so invalid fragments
// are rejected mid-transfer and the saved bytes are accounted in its
// Stats. The chunk budget (Network.ChunkSize) trades peer memory against
// framing overhead; verdicts and message counts are invariant under it.
//
// The federation's wire is a pluggable transport (internal/transport):
// in-process by default, or real TCP — Network.ServeTCP hosts resource
// peers on a socket and Network.DialTCP joins them as the kernel peer,
// speaking a length-prefixed binary frame protocol (session hello with
// a design digest, per-fragment open/chunk/ack/close frames, and a
// reject frame that halts a sender mid-transfer). In process, one-shot
// rounds hand the kernel peer chunks sliced from each resource peer's
// serialized bytes, while live sessions run the TCP host's
// serving loop over an in-memory pipe, so they share its credit
// windows, resume, refusals and deadlines by construction. Transfers flow under
// credit-based sliding-window control: the hello requests a window of
// chunk credits (Network.Window, DefaultWindow), the host grants up to
// its own cap, and the sender pipelines up to that many chunks past
// the receiver's last cumulative ack — window 1 degenerates to the old
// stop-and-wait wire, wider windows hide the per-chunk round trip, and
// backpressure and mid-transfer rejection still bound the sender
// within one window of the receiver's consumption. The wire pays its
// fixed costs per window, not per chunk: the receiver acks
// cumulatively once every max(1, window/2) consumed chunks, and the
// sender writes every chunk its credit allows, headers and payloads,
// in one vectored syscall. The TCP hot path recycles frame buffers
// through a sync.Pool, so steady-state chunk flow does not allocate. Verdicts, frame counts and byte totals are identical
// across transports and window widths — pinned by differential tests —
// and the `dxml serve` / `dxml join` subcommands run a federation
// across processes from a design file.
//
// A design file holds one design: the kernel, the global type and the
// typing. ParseDesign reads it into one immutable Design, which parses
// the type and the typing at most once and is the one place a design
// becomes a federation: Design.Network(docs) builds the kernel peer
// and a resource peer, typed by the design's typing, for each given
// docking point. Design.Digest is the digest the session hello carries.
//
// Federations can outlive the validation round. The edit subsystem
// (internal/live) gives every resource peer a versioned fragment whose
// nodes carry prefix-based labels — stable subtree addresses that
// survive sibling inserts and deletes — and an ordered log of subtree
// edits (replace / insert / delete) that any number of subscribers
// drain. Network.AttachEditor makes a peer editable; Network.OpenLive
// turns the kernel peer into a live session: it pulls each fragment's
// keyed snapshot, subscribes to the edit logs over a TCP or in-memory
// connection
// (edit / ack / verdict-update frames — edits stay stop-and-wait; only
// chunked fragment transfers pipeline under the credit window), and
// maintains the global verdict by *incremental
// revalidation* — a checkpointed result tree of per-node content-DFA
// summaries (Incremental) re-checks only the edited subtree plus the
// ancestor chain whose summaries change, O(edit + depth) instead of
// O(document), while staying byte-identical to from-scratch validation
// (pinned by a differential mutation corpus). Each applied edit's
// verdict flows back to the editing site, and `dxml serve -watch` /
// `dxml join -watch` run the whole loop from the command line,
// re-serving document-file changes as deltas.
//
// The federation assumes peers that answer — so the wire defends
// against the ones that don't. Every TCP frame exchange carries a
// read/write deadline (DefaultTimeout), clients heartbeat through idle
// stretches with ping/pong frames (DefaultHeartbeat), and a missed
// deadline fails the session with a typed TimeoutError (unwrapping to
// ErrTimeout) instead of hanging. A live session under a
// ReconnectPolicy (Network.Reconnect) survives outages: a dropped feed
// marks the verdict stale (LiveUpdate.Health), resubscribes with
// jittered exponential backoff from the replica's last-applied version,
// and catches up by replaying just the edit-log suffix — or by a fresh
// snapshot cut when the editor compacted past it (LiveEditor.Compact /
// CutSince) — converging to a verdict byte-identical to a never-faulted
// run. The chaos seam (internal/transport/chaos, surfaced as
// NewChaosListener and `dxml serve -chaos seed`) makes that claim
// testable: a deterministic, seed-driven fault injector wraps any
// Session or listener and drops, delays, truncates, stalls, or
// duplicates deliveries on a replayable schedule, and the differential
// chaos corpus asserts every faulted run ends in the fault-free
// verdict, traffic totals, and edit-log state — or a clean typed error,
// never a panic, hang, or wrong verdict.
//
// One process can host many federations. The multi-tenant host
// (internal/host, surfaced as NewHostRegistry / NewHostServer) keeps a
// registry of compiled designs keyed by the digest a session hello
// carries, routes every inbound session — validation, live, resume —
// to its tenant, and shares one immutable streaming validator among
// all of a design's sessions. Admission control is enforced at the
// hello: caps on concurrent sessions and open transfers (per tenant
// and global) and a resident-memory budget refuse over-budget hellos
// with a typed RefusedError unwrapping to ErrOverCapacity (an
// unregistered digest unwraps to ErrUnknownDesign) — never a hang.
// Idle designs are evicted LRU under residency pressure and rebuilt
// from their registered builder on the next hello; per-tenant and
// global counters mirror the client-visible Stats exactly and are
// served over HTTP (/healthz, /metrics), with /register accepting new
// designs at runtime. `dxml host` runs it from the command line and
// `dxml register` posts new tenants to it; `dxml join` needs no new
// flags — joining a multi-tenant host looks exactly like joining a
// serve, and answers byte-identically.
//
// The whole stack is observable without being taxed for it. A single
// telemetry collector (Obs, from internal/obs) threads through every
// layer — frame encode/decode timing and chunk-ack round trips on the
// wire, credit-window occupancy at each send, per-fragment lifecycle
// spans, validation latency and event throughput in the streaming
// engine, edit-apply and health transitions in live sessions, and
// admission latency and evictions in the multi-tenant host. The
// substrate is allocation-free — atomic counters and fixed
// power-of-two-bucket histograms — and a nil collector is the no-op
// sink: every hook degrades to a nil check, so an uninstrumented run
// pays nothing (pinned by a zero-alloc CI gate on the chunk hot path).
// Read it back three ways: Prometheus text exposition (WritePrometheus;
// the host's /metrics content-negotiates it against the original JSON),
// pprof and expvar (ObsDebugServer, or `dxml host -debug-http`), and
// structured JSONL trace spans (OpenTrace, the CLI's -trace flag). A
// trace ID minted at each session's hello rides the wire, so the spans
// of one fragment transfer — hello, open, chunks, verdict — stitch into
// a single cross-process timeline from the two sides' trace files.
//
// When telemetry is not enough, the flight recorder (internal/flight,
// surfaced as NewFlightRecorder) is the federation's black box. The
// wire has one observation seam, a TransportObserver (Network.Observer,
// HostConfig.Observer), that receives every frame every TCP or pipe
// session writes or reads as raw wire bytes and every abnormal session
// death (in-process one-shot rounds move slices, not frames, so there
// is nothing of theirs to observe) — a nil
// observer, like the nil collector, is a single nil check on the hot
// path. The recorder, a reducer over these events, keeps a bounded ring
// of recent frames plus, optionally, a full length-prefixed binary
// capture file; the host's tenant counters are another, so a host
// counts exactly the frames it captures. On any typed wire failure
// (ErrTimeout, a RefusedError, a chaos-injected fault, ErrCodec on
// garbage bytes) the CLI's observer dumps a postmortem bundle: frame
// ring, trace-span ring, and metrics snapshot in one self-contained
// JSON artifact, rate-limited so a flapping peer cannot fill a disk.
// The CLI closes the loop: `-capture dir` on serve, join, and host
// records everything; `dxml inspect` renders a capture or bundle as a
// frame timeline with per-stream flow and credit-window occupancy;
// `dxml replay` reassembles the captured fragments and re-validates
// them offline against the recorded verdicts (divergence is an error);
// a host's /debug/flight serves the live ring; and `dxml top` is a
// terminal dashboard over a host's /metrics. DecodeFrame decodes a
// single captured frame for external tooling, truncated ring entries
// included.
//
// The underlying substrates (finite automata with the Brüggemann-Klein/
// Wood one-unambiguity theory, unranked tree automata, XML schema
// abstractions, kernels and typings) live in internal packages and are
// re-exported here as type aliases, so the whole system is usable through
// this single import. The automaton kernel interns all symbols into dense
// integer ids and runs on bitset state sets and compact integer transition
// rows (see internal/strlang); the string-based API here is a thin facade
// over that representation, so facade users pay the interning cost once
// per distinct symbol, not once per operation:
//
//	tau := dxml.MustParseW3CDTD(dxml.KindNRE, figure3)
//	kernel := dxml.MustParseKernel("eurostat(f0 f1 f2 f3)")
//	design := &dxml.DTDDesign{Type: tau, Kernel: kernel}
//	typing, ok := design.ExistsPerfect() // Figure 4's typing
package dxml
