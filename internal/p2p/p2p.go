// Package p2p implements the distributed Active XML setting that
// motivates the paper: a kernel peer holds the kernel document and each
// resource peer holds the subtree document behind one docking point. It
// implements the two validation strategies the theory compares:
//
//   - distributed validation: each resource peer validates its own
//     document against its local type τᵢ and ships only a verdict; the
//     kernel peer checks nothing beyond the typing's guarantees — by
//     soundness, all-local-valid implies the materialized document
//     satisfies the global type, and by completeness no valid document is
//     rejected;
//   - centralized validation: the kernel peer pulls every document and
//     validates the extension extT(t1..tn) against the global type.
//
// Validation runs on the streaming engine (internal/stream): each peer
// compiles its type once into a shared machine and checks fragments in a
// single pass with memory proportional to depth, and the kernel peer
// validates the extension by streaming the kernel's events with each
// docking point spliced from the received fragment bytes — the extension
// document is never materialized (Kernel.Extend is not called).
//
// The wire is the internal/transport abstraction: verdicts and chunked
// fragment streams move over any transport.Session — the in-process
// loopback by default, or real TCP sockets when Network.Transport is a
// dialed session (see ServeTCP and DialTCP). Document transfers are
// *chunked*: a fragment travels as a sequence of fixed-budget frames
// (Network.ChunkSize) that the kernel peer feeds straight into a
// push-parser Feeder as they arrive. Three properties hold on every
// transport, pinned by differential tests:
//
//   - the kernel peer's memory is O(chunk + depth) per transfer instead
//     of O(fragment): no fragment is ever buffered whole;
//   - invalid fragments are rejected *mid-transfer* — the kernel peer
//     stops pulling frames the moment its validator fails, a reject
//     frame halts the sender, and the bytes never shipped are recorded
//     in Stats.BytesSaved;
//   - every chunk is a slice of the document's serialized bytes: each
//     resource peer builds them once per document version, in full, on
//     the first transfer that needs them, and every transfer of that
//     version ships slices of them without a copy. Over TCP the sender
//     never runs more than one credit window ahead of the kernel peer;
//     in process a chunk is cut only when the kernel peer asks for it.
//     A rejection saves the wire bytes past the failure point, not that
//     one build.
//
// Message and byte counts are recorded so the example programs and
// benchmarks can report the communication advantage of local typings
// (the paper's Remark 4 and introduction). Verdict messages are costed
// at a fixed wire size; document messages are costed by the serialized
// bytes actually delivered. Verdicts and logical message counts are
// invariant under both the chunk size and the transport — only
// delivered bytes (on rejected transfers) and frame counts vary with
// the chunk budget, and none of it varies with the transport.
package p2p

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"dxml/internal/axml"
	"dxml/internal/live"
	"dxml/internal/obs"
	"dxml/internal/schema"
	"dxml/internal/stream"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// DefaultChunkSize is the fragment frame budget when Network.ChunkSize is
// left zero: small enough to bound peer memory, large enough that framing
// overhead is noise.
const DefaultChunkSize = 4096

// DefaultWindow is the per-stream credit window when Network.Window is
// zero, re-exported from the transport.
const DefaultWindow = transport.DefaultWindow

// ErrInvalidWindow is returned (wrapped) when Network.Window is
// negative — a nonsensical credit window is refused when the session is
// built, never allowed to become a runtime hang.
var ErrInvalidWindow = transport.ErrInvalidWindow

// Unchunked disables fragment chunking: each document travels as one
// frame, reproducing the pre-chunking monolithic wire.
const Unchunked = -1

// Stats accumulates network traffic at the protocol level: payload
// bytes and logical frames, identically on every transport (TCP's own
// framing overhead is not counted, which is what makes the in-process
// and TCP numbers comparable).
type Stats struct {
	mu       sync.Mutex
	Messages int // logical messages: verdicts and fragment shipments
	// Frames counts wire deliveries: every message contributes one
	// envelope frame, and document messages add one frame per chunk
	// consumed (so even unchunked, a shipped document costs two).
	Frames int
	Bytes  int // payload bytes delivered
	// BytesSaved counts fragment bytes that never traveled because the
	// kernel peer rejected the document mid-transfer (or the round was
	// short-circuited): the communication win of chunked shipping. It is
	// accounted on the receiver side — announced size minus consumed
	// chunk bytes — so it is invariant under the credit window. On the
	// credit-windowed wires (TCP, Pipe) the sender-side saving is smaller
	// by up to Window·ChunkSize bytes: a rejection halts the sender
	// within its credit window, so chunks already in flight (sent but
	// never consumed) still traveled the wire even though they count as
	// saved here. In process no chunk is cut before it is consumed.
	BytesSaved int
	// Revalidated and Skipped account the live session's incremental
	// revalidation, in the result tree's flat byte measure: how much of
	// the extension each applied edit actually re-checked, and how much
	// the checkpointed summaries let the kernel peer skip.
	Revalidated int
	Skipped     int
	// Reconnects counts live-feed recoveries: a dropped subscription
	// that resubscribed (by log suffix or snapshot fallback). Recovery
	// envelopes are deliberately NOT added to Messages/Bytes — protocol
	// accounting stays comparable between a faulted run that resumed by
	// suffix and the fault-free run, which is exactly the differential
	// the chaos corpus pins.
	Reconnects int
}

// addMessage records a message envelope (and its first accounting frame).
func (s *Stats) addMessage(bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Messages++
	s.Frames++
	s.Bytes += bytes
}

// addFrame records one delivered payload frame of an open message.
func (s *Stats) addFrame(bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Frames++
	s.Bytes += bytes
}

// addSaved records bytes a canceled transfer never shipped.
func (s *Stats) addSaved(bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.BytesSaved += bytes
}

// addRecheck records one incremental revalidation's byte split.
func (s *Stats) addRecheck(revalidated, skipped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Revalidated += revalidated
	s.Skipped += skipped
}

// addReconnect records one recovered live subscription.
func (s *Stats) addReconnect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Reconnects++
}

// Snapshot returns the message and byte counters.
func (s *Stats) Snapshot() (messages, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Messages, s.Bytes
}

// Totals is a consistent copy of all counters.
type Totals struct {
	Messages    int
	Frames      int
	Bytes       int
	BytesSaved  int
	Revalidated int
	Skipped     int
	Reconnects  int
}

// Totals returns a consistent copy of all counters.
func (s *Stats) Totals() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Totals{Messages: s.Messages, Frames: s.Frames, Bytes: s.Bytes, BytesSaved: s.BytesSaved,
		Revalidated: s.Revalidated, Skipped: s.Skipped, Reconnects: s.Reconnects}
}

// ResourcePeer owns one docking point's document and local type. The
// streaming machine for the type is compiled lazily once and shared by
// every validation; replace the peer (AddPeer) rather than mutating Type
// in place. The document's XML bytes are likewise built once per
// version and shipped by every transfer of that version, so once a Doc
// has been shipped, replace it by assigning a new tree (as UpdatePeer
// does) rather than mutating it in place.
type ResourcePeer struct {
	Func string
	Doc  *xmltree.Tree
	Type *schema.EDTD

	// Live, when non-nil, is the peer's edit publisher: the editor's
	// document is authoritative (Doc holds the initial state), kernel
	// peers can subscribe to the edit log, and the one-shot protocols
	// read the editor's current tree. Attach one with
	// Network.AttachEditor.
	Live *live.Editor

	compileOnce sync.Once
	machine     *stream.Machine

	mu  sync.Mutex // guards xml
	xml docXML
}

// docXML is a peer's one-entry serialization cache: the XML bytes of
// one version of a document. They are never written once built, so
// transfers ship them after the peer's lock is released.
type docXML struct {
	key   docVersion
	bytes []byte
}

// docVersion names one version of a peer's document: a static tree by
// its pointer, a live document by its editor and edit version.
type docVersion struct {
	doc *xmltree.Tree
	ed  *live.Editor
	ver uint64
}

// currentXML returns the serialization of the peer's current document.
func (p *ResourcePeer) currentXML() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	ed := p.Live
	if ed == nil {
		return p.xmlLocked(docVersion{doc: p.Doc}, p.Doc)
	}
	if p.xml.key == (docVersion{ed: ed, ver: ed.Version()}) {
		return p.xml.bytes
	}
	t, ver := ed.VersionedTree()
	return p.xmlLocked(docVersion{ed: ed, ver: ver}, t)
}

// pinnedXML returns the serialization of a tree standing in for the
// peer's document (a proposed edit), cached as the peer's own are: an
// admitted proposal becomes Doc and ships from the same bytes.
func (p *ResourcePeer) pinnedXML(t *xmltree.Tree) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.xmlLocked(docVersion{doc: t}, t)
}

// xmlLocked returns the cached bytes when they are key's, and otherwise
// serializes t, key's document, in full into a fresh entry. Called
// under p.mu.
func (p *ResourcePeer) xmlLocked(key docVersion, t *xmltree.Tree) []byte {
	if p.xml.key == key {
		return p.xml.bytes
	}
	var b bytes.Buffer
	b.Grow(len(p.xml.bytes)) // a new version is usually about the old one's size
	t.ToXML(&b)              // cannot fail on a Buffer
	p.xml = docXML{key: key, bytes: b.Bytes()}
	return p.xml.bytes
}

// CurrentDoc returns the peer's current document: the live editor's
// tree when one is attached, the static Doc otherwise.
func (p *ResourcePeer) CurrentDoc() *xmltree.Tree {
	if p.Live != nil {
		return p.Live.Tree()
	}
	return p.Doc
}

// Machine returns the peer's compiled streaming validator.
func (p *ResourcePeer) Machine() *stream.Machine {
	p.compileOnce.Do(func() { p.machine = stream.Compile(p.Type) })
	return p.machine
}

// Validate streams the peer's current document through its local type,
// checking ctx between elements so a canceled round stops mid-document.
func (p *ResourcePeer) Validate(ctx context.Context) error {
	r := p.Machine().NewRunner()
	defer r.Release()
	if err := stream.StreamTree(p.CurrentDoc(), &ctxHandler{ctx: ctx, h: r}); err != nil {
		return err
	}
	return r.Finish()
}

// ctxHandler forwards events and counts them, polling the context after
// every 256th event, whichever kind it is, so an in-flight validation
// notices a short-circuit cancel within 256 events of any document.
type ctxHandler struct {
	ctx context.Context
	h   stream.Handler
	n   int
}

// after counts the event just forwarded and passes on its error; on
// every 256th event that succeeded it returns the context's error.
func (c *ctxHandler) after(err error) error {
	c.n++
	if err != nil || c.n&255 != 0 {
		return err
	}
	return c.ctx.Err()
}

func (c *ctxHandler) Resolve(label string) stream.Sym { return c.h.Resolve(label) }

func (c *ctxHandler) StartElement(label string, sym stream.Sym) error {
	return c.after(c.h.StartElement(label, sym))
}

func (c *ctxHandler) Text() error { return c.after(c.h.Text()) }

func (c *ctxHandler) EndElement() error { return c.after(c.h.EndElement()) }

// peerSource adapts a ResourcePeer to the transport's sender surface:
// verdicts from its machine, serializations from the peer's cached XML
// bytes of the document version, written in one piece. A nil doc reads
// the peer's current document at call time (so a host serves edits
// without re-wiring); a non-nil doc pins an override (the
// collaborative-edit protocols).
type peerSource struct {
	peer *ResourcePeer
	doc  *xmltree.Tree
	obs  *obs.Collector // per-document validation telemetry (nil: no-op)
}

func (s *peerSource) document() *xmltree.Tree {
	if s.doc != nil {
		return s.doc
	}
	return s.peer.CurrentDoc()
}

func (s *peerSource) Verdict(ctx context.Context) bool {
	r := s.peer.Machine().NewRunner()
	defer r.Release()
	start := s.obs.Nanos()
	ch := &ctxHandler{ctx: ctx, h: r}
	err := stream.StreamTree(s.document(), ch)
	if err == nil {
		err = r.Finish()
	}
	s.obs.Observe(obs.HValidateDocNs, s.obs.Nanos()-start)
	s.obs.Add(obs.CDocsValidated, 1)
	s.obs.Add(obs.CStreamEvents, int64(ch.n))
	return err == nil
}

// xml returns the serialization of the source's document.
func (s *peerSource) xml() []byte {
	if s.doc != nil {
		return s.peer.pinnedXML(s.doc)
	}
	return s.peer.currentXML()
}

func (s *peerSource) Serialize(w io.Writer) error {
	_, err := w.Write(s.xml())
	return err
}

// Network is a federation: one kernel peer plus one resource peer per
// docking point. By default the peers live in process and the wire is
// the in-process transport; set Transport to a dialed session (DialTCP)
// to validate against remote peers instead.
type Network struct {
	Kernel     *axml.Kernel
	GlobalType *schema.EDTD
	Peers      map[string]*ResourcePeer
	Stats      Stats

	// ChunkSize is the fragment frame budget in bytes: larger chunks
	// cost fewer frames (less framing/handoff overhead) but more peer
	// memory and more wasted bytes when a fragment is rejected
	// mid-transfer. 0 means DefaultChunkSize; any negative value
	// (canonically Unchunked) ships each document as a single frame.
	// Verdicts and message counts do not depend on it.
	ChunkSize int

	// Window is the per-stream credit window in chunks: how many unacked
	// chunks a sender may pipeline before parking for the receiver's
	// cumulative ack. The receiver acks once every max(1, Window/2)
	// consumed chunks, and the sender writes the chunks each ack's
	// credit allows in one vectored write. 0 means DefaultWindow; 1
	// degenerates to stop-and-wait; negative is refused with
	// ErrInvalidWindow when the session is built. It applies to the credit-windowed wires (TCP
	// and Pipe sessions); the in-process wire cuts each chunk only when
	// the kernel peer asks for it. Verdicts, message counts, and Stats
	// byte totals are invariant under it — only latency, sender-side
	// rejection savings (see Stats.BytesSaved), and peer memory change.
	// Each open stream may hold up to Window·ChunkSize bytes of
	// unconsumed chunks at the kernel peer.
	Window int

	// Transport, when non-nil, is the session the kernel peer validates
	// over — typically DialTCP's federation of remote hosts. When nil,
	// one-shot rounds run over the in-process transport against Peers,
	// and OpenLive serves Peers over a transport.Pipe.
	Transport transport.Session

	// Reconnect is the live session's recovery policy: when a docking
	// point's edit feed dies, the kernel peer resubscribes from its
	// replica's version with exponential backoff instead of giving up.
	// The zero value disables reconnection (a feed error is terminal,
	// the pre-fault-tolerance behavior).
	Reconnect ReconnectPolicy

	// Redial, when set, dials a fresh session to the federation's hosts
	// — the live session's recovery path when resubscribing on the
	// existing (dead) session fails. DialTCP sets it automatically to
	// redial the same address map.
	Redial func() (transport.LiveSession, error)

	// Obs, when non-nil, receives the federation's telemetry: fragment
	// lifecycle latency, per-document validation timing, live-session
	// health transitions. It is threaded into every session this network
	// dials or serves, so transport-level metrics land in the same
	// collector. Nil (the default) is the no-op sink.
	Obs *obs.Collector

	// Observer, when non-nil, is threaded into every session this
	// network dials or serves and into its Pipe sessions: each frame
	// they encode or decode is handed to it as raw bytes, and
	// ServeTCP's host reports abnormal session deaths to it. In-process
	// one-shot rounds move no frames. Nil (the default) observes nothing.
	Observer transport.Observer

	compileOnce sync.Once
	machine     *stream.Machine
}

// ReconnectPolicy governs live-feed recovery: exponential backoff with
// jitter between resubscription attempts.
type ReconnectPolicy struct {
	// MaxAttempts is the number of resubscription attempts per outage
	// before the docking point is declared down. 0 disables
	// reconnection entirely.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 10ms); each failed
	// attempt doubles it up to MaxDelay (default 1s). The actual sleep
	// is jittered uniformly over [delay/2, delay] so a federation of
	// subscribers does not reconnect in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the jitter; 0 means 1 (fully deterministic either
	// way, which is what lets the chaos corpus replay runs exactly).
	Seed int64
}

// delay computes the jittered backoff before attempt (0-based).
func (pol ReconnectPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	base, ceil := pol.BaseDelay, pol.MaxDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = time.Second
	}
	d := base
	for i := 0; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// chunkBudget resolves the configured chunk size: positive is the frame
// budget, zero the default, and any negative value means Unchunked — a
// mistyped negative must not silently fall back to the default.
func (n *Network) chunkBudget() int {
	switch {
	case n.ChunkSize > 0:
		return n.ChunkSize
	case n.ChunkSize < 0:
		return math.MaxInt
	default:
		return DefaultChunkSize
	}
}

// window validates the configured credit window at session-build time:
// a negative window is a configuration error, refused with a typed
// error instead of surfacing later as a hang or protocol failure.
func (n *Network) window() (int, error) {
	if n.Window < 0 {
		return 0, fmt.Errorf("p2p: window %d: %w", n.Window, ErrInvalidWindow)
	}
	return n.Window, nil
}

// NewNetwork builds a federation for the kernel; documents and local
// types are attached per function with AddPeer.
func NewNetwork(kernel *axml.Kernel, global *schema.EDTD) *Network {
	return &Network{
		Kernel:     kernel,
		GlobalType: global,
		Peers:      map[string]*ResourcePeer{},
	}
}

// GlobalMachine returns the kernel peer's compiled validator for the
// global type.
func (n *Network) GlobalMachine() *stream.Machine {
	n.compileOnce.Do(func() { n.machine = stream.Compile(n.GlobalType) })
	return n.machine
}

// AddPeer attaches a resource peer for the given docking point.
func (n *Network) AddPeer(fn string, doc *xmltree.Tree, local *schema.EDTD) error {
	if n.Kernel.FuncIndex(fn) < 0 {
		return fmt.Errorf("p2p: kernel has no docking point %s", fn)
	}
	n.Peers[fn] = &ResourcePeer{Func: fn, Doc: doc, Type: local}
	return nil
}

// peers resolves every docking point to its peer, failing on gaps.
func (n *Network) peers() ([]*ResourcePeer, error) {
	funcs := n.Kernel.Funcs()
	out := make([]*ResourcePeer, len(funcs))
	for i, f := range funcs {
		peer, ok := n.Peers[f]
		if !ok {
			return nil, fmt.Errorf("p2p: no peer for %s", f)
		}
		out[i] = peer
	}
	return out, nil
}

// localSession builds the in-process transport over this network's own
// peers; override maps docking points to replacement documents (the
// collaborative-edit protocols validate a proposed document without
// committing it).
func (n *Network) localSession(override map[string]*xmltree.Tree) (transport.Session, error) {
	peers, err := n.peers()
	if err != nil {
		return nil, err
	}
	// The in-process wire has no credit window, but a negative one is
	// refused here as on every other wire.
	if _, err := n.window(); err != nil {
		return nil, err
	}
	srcs := make(map[string]transport.Source, len(peers))
	for _, p := range peers {
		srcs[p.Func] = &peerSource{peer: p, doc: override[p.Func], obs: n.Obs}
	}
	return &transport.InProc{Sources: srcs, Chunk: n.chunkBudget()}, nil
}

// session resolves the wire validation runs over: the externally dialed
// Transport when set, the in-process loopback otherwise.
func (n *Network) session() (transport.Session, error) {
	if n.Transport != nil {
		return n.Transport, nil
	}
	return n.localSession(nil)
}

// Digest is the DesignDigest of the federation's kernel and global type.
func (n *Network) Digest() []byte { return DesignDigest(n.Kernel, n.GlobalType) }

// DesignDigest fingerprints a design — its kernel document and the shape
// of its global type — so a TCP hello refuses to pair a serve and a join
// running different designs. Each section is prefixed with its element
// count, so section markers can never be mistaken for content (a start
// literally named "names" must not collide with the names section of
// another design).
func DesignDigest(kernel *axml.Kernel, global *schema.EDTD) []byte {
	starts := global.Starts
	names := global.SpecializedNames()
	sort.Strings(names)
	parts := []string{"kernel", kernel.Tree().String(),
		"starts", strconv.Itoa(len(starts))}
	parts = append(parts, starts...)
	parts = append(parts, "names", strconv.Itoa(len(names)))
	parts = append(parts, names...)
	return transport.Digest(parts...)
}

// HostSources adapts every attached peer to the transport's sender
// surface: the docking-point map a host serves — directly for a
// single-design host (ServeTCP), or as one tenant of a multi-tenant
// registry. Each source reads the peer's current document at call time,
// so live edits are served without re-wiring.
func (n *Network) HostSources() map[string]transport.Source {
	srcs := make(map[string]transport.Source, len(n.Peers))
	for fn, p := range n.Peers {
		srcs[fn] = &peerSource{peer: p, obs: n.Obs}
	}
	return srcs
}

// ResidentEstimate approximates the bytes a host pins by keeping this
// network's serving state resident: the kernel document plus every
// peer's current document, in the flat XML byte measure used
// throughout. Compiled validators, tree overhead and each peer's cached
// XML bytes are not counted — the estimate is a budget token for
// admission control, not an allocator measurement, and leaving the
// cache out keeps admission decisions where they were before peers
// cached their bytes.
func (n *Network) ResidentEstimate() int64 {
	total := int64(n.Kernel.Tree().XMLSize())
	for _, p := range n.Peers {
		total += int64(p.CurrentDoc().XMLSize())
	}
	return total
}

// ServeTCP hosts this network's resource peers on ln: remote kernel
// peers can dial it, request verdicts, and pull fragment streams. A
// host may serve any subset of the federation (attach only the local
// docking points); close the returned host to stop.
// The host's Window caps every joining client's credit-window grant.
func (n *Network) ServeTCP(ln net.Listener) *transport.Host {
	return transport.NewHost(ln, transport.HostConfig{Digest: n.Digest(), Sources: n.HostSources(),
		Window: max(n.Window, 0), Obs: n.Obs, Observer: n.Observer})
}

// DialTCP connects the kernel peer to the hosts serving its docking
// points: addrs maps each function to its host's address, and functions
// sharing an address share one session. The returned session carries
// this network's design digest and chunk budget; assign it to
// n.Transport and close it when done. As a side effect it wires
// n.Redial to redial the same address map, so a live session under a
// Reconnect policy can recover from a dropped host connection.
func (n *Network) DialTCP(addrs map[string]string) (transport.Session, error) {
	n.Redial = func() (transport.LiveSession, error) { return n.dialTCP(addrs) }
	return n.dialTCP(addrs)
}

// dialConfig is the kernel peer's end of every session this network
// dials: its design digest, chunk budget, credit window, obs and observer.
func (n *Network) dialConfig() (transport.Config, error) {
	win, err := n.window()
	if err != nil {
		return transport.Config{}, err
	}
	return transport.Config{Digest: n.Digest(), Chunk: n.chunkBudget(), Window: win, Obs: n.Obs, Observer: n.Observer}, nil
}

// pipeSession serves this network's own peers on one end of a
// transport.Pipe and dials the other: the in-process wire for live
// sessions. The observer sees the kernel peer's end only, as a capture
// of a TCP join does.
func (n *Network) pipeSession() (*transport.Conn, error) {
	cfg, err := n.dialConfig()
	if err != nil {
		return nil, err
	}
	return transport.Pipe(transport.HostConfig{Digest: cfg.Digest, Sources: n.HostSources(), Obs: n.Obs}, cfg)
}

func (n *Network) dialTCP(addrs map[string]string) (transport.LiveSession, error) {
	cfg, err := n.dialConfig()
	if err != nil {
		return nil, err
	}
	byAddr := map[string]*transport.Conn{}
	multi := transport.Multi{}
	for _, fn := range n.Kernel.Funcs() {
		addr, ok := addrs[fn]
		if !ok {
			multi.Close()
			return nil, fmt.Errorf("p2p: no host address for docking point %s", fn)
		}
		conn, ok := byAddr[addr]
		if !ok {
			var err error
			conn, err = transport.Dial(addr, cfg)
			if err != nil {
				multi.Close()
				return nil, fmt.Errorf("p2p: dial %s: %w", addr, err)
			}
			byAddr[addr] = conn
		}
		multi[fn] = conn
	}
	return multi, nil
}

// ValidateDistributed runs the distributed protocol: every peer validates
// locally in parallel and sends a verdict-only message. The result is the
// conjunction of the local verdicts. The round short-circuits: the first
// failing verdict cancels the outstanding peers (canceled peers abort
// mid-document and send nothing), so traffic is at most n verdict
// messages and Stats counts exactly the messages delivered.
func (n *Network) ValidateDistributed() (bool, error) {
	return n.ValidateDistributedContext(context.Background())
}

// ValidateDistributedContext is ValidateDistributed under an external
// context; canceling it aborts the round.
func (n *Network) ValidateDistributedContext(ctx context.Context) (bool, error) {
	sess, err := n.session()
	if err != nil {
		return false, err
	}
	funcs := n.Kernel.Funcs()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		fn      string
		verdict bool
		err     error
	}
	ch := make(chan result, len(funcs))
	var wg sync.WaitGroup
	for _, f := range funcs {
		wg.Add(1)
		go func(fn string) {
			defer wg.Done()
			if ctx.Err() != nil {
				return // round already decided: send nothing
			}
			v, verr := sess.Verdict(ctx, fn)
			if ctx.Err() != nil {
				return // canceled mid-validation: nothing delivered
			}
			if verr != nil {
				ch <- result{err: verr}
				return
			}
			ch <- result{fn: fn, verdict: v}
		}(f)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	all := true
	delivered := 0
	var transErr error
	for res := range ch {
		if res.err != nil {
			if transErr == nil {
				transErr = res.err
				cancel()
			}
			continue
		}
		delivered++
		n.Stats.addMessage(transport.EnvelopeCost(res.fn))
		if !res.verdict {
			all = false
			cancel() // short-circuit the peers still running
		}
	}
	if transErr != nil {
		return false, fmt.Errorf("p2p: transport: %w", transErr)
	}
	if all && delivered < len(funcs) {
		// Verdicts are missing and none of them failed, so the caller's
		// context must have ended mid-round (our own short-circuit cancel
		// always comes with a failing verdict). A fully delivered round is
		// conclusive regardless of the context's state.
		return false, ctx.Err()
	}
	return all, nil
}

// ValidateCentralized runs the centralized protocol: every peer ships its
// whole document in chunk-budget frames, and the kernel peer validates
// the extension extT(t1..tn) against the global type by streaming its own
// kernel events with each docking point spliced from the frames as they
// arrive. Neither the extension nor any single fragment is ever
// materialized at the kernel peer — its memory is O(chunk + depth) — and
// an invalid document is rejected mid-transfer: frames past the failure
// are never pulled (a reject halts the sender), and their bytes are
// recorded in Stats.BytesSaved. Traffic on a valid federation: n full
// documents.
func (n *Network) ValidateCentralized() (bool, error) {
	return n.ValidateCentralizedContext(context.Background())
}

// ValidateCentralizedContext is ValidateCentralized under an external
// context: canceling it aborts the round *including* in-flight fragment
// transfers — the walk stops pulling frames, rejects halt the senders,
// and nothing past the cancellation point is shipped beyond the credit
// window.
func (n *Network) ValidateCentralizedContext(ctx context.Context) (bool, error) {
	sess, err := n.session()
	if err != nil {
		return false, err
	}
	return n.centralizedOverSession(ctx, sess)
}

// centralizedOverSession validates extT against the global type with
// every docking point's document pulled as a chunked stream over sess,
// in one pass at the kernel peer. It returns the verdict; a transport
// failure (as opposed to an invalid document) is the returned error.
func (n *Network) centralizedOverSession(parent context.Context, sess transport.Session) (bool, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel() // releases every pending open
	funcs := n.Kernel.Funcs()
	idx := make(map[string]int, len(funcs))
	for i, f := range funcs {
		idx[f] = i
	}
	// Every stream is opened up front, in kernel order: each announces
	// its size, which settles the bytes a cut-short round saved.
	frags := make([]transport.Fragment, len(funcs))
	delivered := make([]int, len(funcs))
	full := make([]bool, len(funcs))
	openStart := make([]int64, len(funcs))
	for i, fn := range funcs {
		openStart[i] = n.Obs.Nanos()
		frag, err := sess.Open(ctx, fn)
		if err != nil {
			for _, f := range frags[:i] {
				f.Abort()
			}
			return false, fmt.Errorf("p2p: transport: %w", err)
		}
		n.Obs.Observe(obs.HFragmentOpenNs, n.Obs.Nanos()-openStart[i])
		frags[i] = frag
	}
	var transErr error
	r := n.GlobalMachine().NewRunner()
	err := stream.StreamKernel(n.Kernel, r, func(fn string, h stream.Handler) error {
		i, ok := idx[fn]
		if !ok {
			return fmt.Errorf("p2p: unknown docking point %s", fn)
		}
		frag := frags[i]
		n.Stats.addMessage(transport.EnvelopeCost(fn)) // message envelope
		f := stream.NewInnerFeeder(h)
		for {
			if cerr := ctx.Err(); cerr != nil {
				// The round was canceled mid-transfer (SIGINT on a CLI
				// join, a dead deadline upstream): reject the stream so
				// the sender halts now, not at its next write.
				frag.Abort()
				transErr = cerr
				return cerr
			}
			chunk, nerr := frag.Next()
			if nerr == io.EOF {
				full[i] = true
				n.Obs.Observe(obs.HFragmentTransferNs, n.Obs.Nanos()-openStart[i])
				break
			}
			if nerr != nil {
				transErr = nerr
				return nerr
			}
			n.Stats.addFrame(len(chunk))
			delivered[i] += len(chunk)
			if ferr := f.Feed(chunk); ferr != nil {
				frag.Abort() // mid-transfer rejection: halt the sender
				return ferr
			}
		}
		return f.Close()
	})
	if err == nil {
		err = r.Finish()
	}
	r.Release()
	if transErr == nil {
		// Settle the byte accounting: every transfer the verdict cut
		// short — aborted mid-stream or never consumed at all — saved
		// its remaining bytes.
		for i := range funcs {
			if full[i] {
				continue
			}
			frags[i].Abort()
			saved := frags[i].Size() - delivered[i]
			n.Stats.addSaved(saved)
			n.Obs.Add(obs.CBytesSavedObs, int64(saved))
		}
	}
	if transErr != nil {
		return false, fmt.Errorf("p2p: transport: %w", transErr)
	}
	return err == nil, nil
}

// Materialize returns the extension document (for inspection), built
// from each peer's current document — the live editor's tree when one
// is attached.
func (n *Network) Materialize() (*xmltree.Tree, error) {
	ext := map[string]*xmltree.Tree{}
	for f, p := range n.Peers {
		ext[f] = p.CurrentDoc()
	}
	return n.Kernel.Extend(ext)
}

// UpdatePeer is the collaborative-editing operation of the paper's
// introduction (WebDAV / XML Fragment Interchange): a resource peer
// replaces its fragment. With a *local* typing the edit is admissible iff
// the new fragment validates against the peer's own type — no other peer
// and no global document is touched. The verdict message is the only
// traffic recorded.
//
// The edit is applied only when locally valid; the previous document is
// returned so callers can inspect or restore it.
func (n *Network) UpdatePeer(fn string, newDoc *xmltree.Tree) (admitted bool, previous *xmltree.Tree, err error) {
	peer, ok := n.Peers[fn]
	if !ok {
		return false, nil, fmt.Errorf("p2p: no peer for %s", fn)
	}
	verdict := peer.Machine().ValidateTree(newDoc) == nil
	n.Stats.addMessage(transport.EnvelopeCost(fn))
	if !verdict {
		return false, peer.Doc, nil
	}
	previous = peer.Doc
	peer.Doc = newDoc
	return true, previous, nil
}

// UpdatePeerCentralized is the same edit under centralized validation:
// the new fragment is shipped to the kernel peer, every other fragment is
// pulled, and the whole extension is re-validated chunk by chunk; on
// failure the edit is rolled back — and because rejection happens
// mid-transfer, a bad edit deep in the kernel walk saves every byte the
// kernel peer no longer needs to pull. It always runs against this
// network's own peers (the edit mutates them), regardless of Transport.
func (n *Network) UpdatePeerCentralized(fn string, newDoc *xmltree.Tree) (admitted bool, err error) {
	peer, ok := n.Peers[fn]
	if !ok {
		return false, fmt.Errorf("p2p: no peer for %s", fn)
	}
	sess, err := n.localSession(map[string]*xmltree.Tree{fn: newDoc})
	if err != nil {
		return false, err
	}
	ok, err = n.centralizedOverSession(context.Background(), sess)
	if err != nil || !ok {
		return false, err
	}
	peer.Doc = newDoc
	return true, nil
}
