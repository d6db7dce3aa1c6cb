package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dxml/internal/obs"
)

// Router resolves a session hello to the design it belongs to: a
// multi-tenant host keeps a registry of designs keyed by digest and
// routes every incoming session — validation, live, and resume alike —
// to its tenant's sources. Route is called once per accepted hello and
// must be safe for concurrent use.
type Router interface {
	// Route admits or refuses a session by its hello digest. A
	// *RefusedError refusal travels to the client as a typed refuse
	// frame (ErrUnknownDesign, ErrOverCapacity); any other error is a
	// generic session error. The returned route's Close is called
	// exactly once when the session ends.
	Route(digest []byte) (Route, error)
}

// Route is one admitted session's serving state: the tenant's sources,
// its per-stream admission gate, its observer, and the release hook.
type Route struct {
	// Sources maps each docking point the session may address to its
	// peer.
	Sources map[string]Source
	// Gate, when non-nil, mediates the session's stream admissions.
	Gate Gate
	// Observer, when non-nil, observes the session's frames after the
	// hello, beside the host's own observer: the tenant's traffic
	// accounting.
	Observer Observer
	// Close, when non-nil, is called exactly once when the session ends.
	Close func()
}

// Gate is a routed session's per-stream admission seam. The host calls
// it from the session's serving goroutines, so implementations must be
// safe for concurrent use.
type Gate interface {
	// OpenStream is called before a fragment or subscription stream is
	// served; a non-nil error refuses the stream (a stream error frame,
	// typed when the error is a *RefusedError — never a hang).
	// CloseStream is called exactly once for every admitted stream, in
	// frame order: when the client's reject frame is read, just before
	// a fragment's End frame is written, or when the stream fails — so
	// a client that has aborted a stream or read its End can reopen
	// under the same cap at once.
	OpenStream(fn string) error
	CloseStream(fn string)
}

// HostConfig parameterizes a peer host.
type HostConfig struct {
	// Digest is the hosted design's fingerprint; sessions presenting a
	// different digest are refused at hello with ErrUnknownDesign.
	// Ignored when Router is set.
	Digest []byte
	// Sources maps each hosted docking point to its peer. Ignored when
	// Router is set.
	Sources map[string]Source
	// Router, when non-nil, makes the host multi-tenant: each hello's
	// digest is resolved to its design's sources instead of being
	// checked against the single configured Digest.
	Router Router
	// Timeout is the liveness window per session: every frame read and
	// write carries a deadline this far out, and a session missing it is
	// torn down — clients heartbeat (ping) through idle stretches, so
	// only a dead or stalled peer ever trips it. Zero means
	// DefaultTimeout; negative disables deadlines.
	Timeout time.Duration
	// Window caps the per-stream credit window this host will honor,
	// whatever the client's hello grants: an open credited transfer can
	// hold up to window×chunk bytes in flight, so the cap bounds the
	// host's per-stream exposure. Zero means no cap beyond the
	// transport-wide maximum. The effective (clamped) window is echoed
	// in each stream's begin/subscribed frame.
	Window int
	// Obs, when non-nil, receives the host's telemetry: frame timing,
	// chunk ack RTT, credit-window occupancy, admission latency, and
	// per-session lifecycle spans tagged with the trace ID each hello
	// carries. Nil (the default) is the no-op sink.
	Obs *obs.Collector
	// Observer, when non-nil, observes every frame every session writes
	// or reads, as raw wire bytes tagged with the session's trace ID,
	// and every abnormal session death as a Failed event: a refused
	// hello, a liveness timeout, a codec error on garbage bytes, an
	// injected fault. Clean closes (EOF between frames, a torn-down
	// listener) are not failures. One observer is shared across all
	// sessions. Nil (the default) costs the hot paths one nil check and
	// nothing else.
	Observer Observer
}

// route resolves a hello digest against the config: the router when one
// is set, the single static design otherwise.
func (cfg *HostConfig) route(digest []byte) (Route, error) {
	if cfg.Router != nil {
		return cfg.Router.Route(digest)
	}
	if !bytes.Equal(digest, cfg.Digest) {
		return Route{}, &RefusedError{Code: RefuseUnknownDesign,
			Reason: "design digest mismatch (this host serves a different design)"}
	}
	return Route{Sources: cfg.Sources}, nil
}

// Host serves a set of resource peers over TCP: it accepts sessions
// from kernel peers and answers their verdict requests and fragment
// streams. One host may serve any subset of a federation's docking
// points; a kernel peer federates several hosts with Multi.
type Host struct {
	ln     net.Listener
	cfg    HostConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewHost starts serving cfg's sources on ln; it returns immediately.
// Use net.Listen("tcp", "127.0.0.1:0") + Addr for an ephemeral port.
func NewHost(ln net.Listener, cfg HostConfig) *Host {
	h := &Host{ln: ln, cfg: cfg, conns: map[net.Conn]struct{}{}}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	h.wg.Add(1)
	go h.acceptLoop()
	return h
}

// Addr is the listener's address (the port to join).
func (h *Host) Addr() net.Addr { return h.ln.Addr() }

// Close stops accepting, tears down every session, and waits for them.
func (h *Host) Close() error {
	err := h.ln.Close()
	h.cancel()
	h.mu.Lock()
	h.closed = true
	for c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	h.wg.Wait()
	return err
}

func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		// A dial can race Close: the listener hands us a conn after
		// Close swept the map. Close it here or nobody will, and
		// Close's Wait would hang on its session forever.
		if h.closed {
			h.mu.Unlock()
			c.Close()
			return
		}
		h.conns[c] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.serveSession(c)
			h.mu.Lock()
			delete(h.conns, c)
			h.mu.Unlock()
		}()
	}
}

// hostStream is one fragment transfer or subscription in progress at
// the host. Chunk flow control is credit-based: acked holds the highest
// cumulative consumed-chunk count the client has reported, and ackCh is
// a capacity-1 wakeup the read loop pulses whenever that count grows —
// a sender parked out of credit wakes, re-reads acked, and either
// proceeds or parks again. Because only forward-moving acks pulse the
// channel, a duplicated ack (same cumulative count) grants nothing.
// Edit delivery stays stop-and-wait on its own token channel.
type hostStream struct {
	acked    atomic.Uint64
	ackCh    chan struct{}
	editAck  chan struct{}
	cancel   context.CancelFunc
	fn       string
	released atomic.Bool // the admission slot went back to the gate

	// sendNs, allocated only when the host is instrumented, is a ring of
	// send timestamps (collector nanos) indexed by chunk ordinal % win.
	// The sender goroutine stores each chunk's send time; the read loop
	// reads the newest-acked slot when a cumulative ack arrives and
	// observes the difference as chunk RTT. Atomics give the cross-
	// goroutine happens-before the plain ring would lack; a window can
	// recycle a slot before its ack is read only after the client acked
	// past it, so a raced slot yields a shorter (never negative) RTT
	// sample — acceptable for a histogram.
	sendNs []atomic.Int64

	// sentChunks/sentBytes are written only by the sender goroutine and
	// read by it at stream end for the chunks span.
	sentChunks uint64
	sentBytes  int64
}

func newHostStream(cancel context.CancelFunc, fn string) *hostStream {
	return &hostStream{ackCh: make(chan struct{}, 1), editAck: make(chan struct{}, 1), cancel: cancel, fn: fn}
}

// session is one kernel peer's connection, the host's end of it.
type session struct {
	endpoint // trace: from the client's hello
	sources  map[string]Source
	gate     Gate // nil: ungated
	budget   int  // chunk budget from the hello
	win      int  // effective per-stream credit window

	mu       sync.Mutex
	streams  map[uint32]*hostStream
	verdicts map[uint32]context.CancelFunc
	lives    map[uint32]LiveFeedSrc // open subscriptions, for verdict-update routing
	wg       sync.WaitGroup
}

// fail reports the session's abnormal death to its observer as a Failed
// event. Clean closes are filtered here — EOF between frames and a
// closed listener are how every healthy session ends — so observers
// only ever see genuine failures: timeouts, codec errors on garbage
// bytes, refusals, injected faults, resets.
func (s *session) fail(err error) {
	if s.fw.ob == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	s.fw.ob.Observe(Event{Kind: Failed, Sess: s.trace, Err: err})
}

func (h *Host) serveSession(c net.Conn) {
	defer c.Close()
	s := &session{streams: map[uint32]*hostStream{}, verdicts: map[uint32]context.CancelFunc{},
		lives: map[uint32]LiveFeedSrc{}}
	s.init(c, resolveLiveness(h.cfg.Timeout, DefaultTimeout), h.cfg.Obs)
	s.observeAs(h.cfg.Observer, 0)
	s.armReadDeadline()
	helloStart := spanClock(s.obs)
	hello, err := s.fr.read()
	if err != nil || hello.typ != frameHello {
		if err == nil {
			err = codecErrf("transport: expected hello, got frame type %d", hello.typ)
		}
		s.fail(err)
		s.send(frame{typ: frameError, str: "expected hello"})
		return
	}
	s.observeAs(h.cfg.Observer, hello.ver)
	if hello.flag != protocolVersion {
		s.send(frame{typ: frameError, str: fmt.Sprintf("protocol version mismatch: client speaks v%d, this host v%d", hello.flag, protocolVersion)})
		return
	}
	admitStart := s.obs.Nanos()
	route, rerr := h.cfg.route(hello.data)
	s.obs.Observe(obs.HAdmissionNs, s.obs.Nanos()-admitStart)
	if rerr != nil {
		s.fail(rerr)
		s.obs.Add(obs.CRefusals, 1)
		// A refusal is typed on the wire (unknown design, over
		// capacity) so the dialing peer can tell "back off and retry"
		// from "wrong host" — and it is always immediate: admission
		// control answers the hello, it never parks it.
		var ref *RefusedError
		if errors.As(rerr, &ref) {
			s.send(frame{typ: frameRefuse, flag: byte(ref.Code), str: ref.Reason})
		} else {
			s.send(frame{typ: frameError, str: rerr.Error()})
		}
		return
	}
	if route.Close != nil {
		defer route.Close()
	}
	s.sources, s.gate = route.Sources, route.Gate
	s.observeAs(join(h.cfg.Observer, route.Observer), s.trace)
	s.budget = budgetFromWire(hello.id)
	// The effective credit window: the client's hello grant clamped to
	// [1, maxWindow] and to the host's own cap. Hostile grants (zero, or
	// a count that overflows int) are clamped, never honored — credits
	// gate sending, they never size an allocation, so no grant can make
	// the host buffer unboundedly or deadlock.
	s.win = clampWindow(int(hello.win), h.cfg.Window)
	if err := s.send(frame{typ: frameWelcome, flag: protocolVersion, data: hello.data}); err != nil {
		return
	}
	s.obs.Add(obs.CAdmissions, 1)
	s.obs.Span(obs.Span{Trace: s.trace, Name: "hello", Start: helloStart, End: spanClock(s.obs)})
	ctx, cancel := context.WithCancel(h.ctx)
	defer func() {
		cancel() // halts every in-flight verdict and stream
		s.wg.Wait()
	}()
	for {
		f, err := s.read()
		if err != nil {
			s.fail(err)
			return
		}
		if ok, err := s.liveness(f); ok {
			if err != nil {
				return
			}
			continue
		}
		switch f.typ {
		case frameVerdictReq:
			src, ok := s.sources[f.str]
			if !ok {
				s.streamErr(f.id, errors.New("no such docking point: "+f.str))
				continue
			}
			vctx, vcancel := context.WithCancel(ctx)
			s.mu.Lock()
			s.verdicts[f.id] = vcancel
			s.mu.Unlock()
			s.wg.Add(1)
			go func(id uint32, fn string) {
				defer s.wg.Done()
				start := spanClock(s.obs)
				v := byte(0)
				if src.Verdict(vctx) {
					v = 1
				}
				canceled := vctx.Err() != nil
				s.mu.Lock()
				delete(s.verdicts, id)
				s.mu.Unlock()
				vcancel()
				if canceled {
					return
				}
				if s.sendAs(frame{typ: frameVerdict, id: id, flag: v}, Verdict, fn) == nil {
					s.obs.Span(obs.Span{Trace: s.trace, Name: "verdict", Frag: fn, Start: start, End: spanClock(s.obs)})
				}
			}(f.id, f.str)

		case frameVerdictCancel:
			s.mu.Lock()
			vcancel := s.verdicts[f.id]
			delete(s.verdicts, f.id)
			s.mu.Unlock()
			if vcancel != nil {
				vcancel() // the round was decided: stop mid-document
			}

		case frameOpen, frameSubscribe, frameResume:
			s.openStream(ctx, f)

		case frameAck:
			s.mu.Lock()
			st := s.streams[f.id]
			s.mu.Unlock()
			if st != nil {
				// Cumulative credit replenishment. Only a forward-moving
				// count stores and pulses — a duplicated or stale ack
				// (chaos retransmission, broken client) changes nothing,
				// so it can never double-credit the sender. The read loop
				// is the sole writer of acked, so load-check-store is safe.
				if cum := f.ver; cum > st.acked.Load() {
					if ring := st.sendNs; ring != nil {
						// RTT of the newest chunk this ack covers: its send
						// time is still in the ring (the window bounds how
						// far sending can run ahead of acks).
						if t := ring[(cum-1)%uint64(len(ring))].Load(); t > 0 {
							s.obs.Observe(obs.HChunkRTTNs, s.obs.Nanos()-t)
						}
						s.obs.Add(obs.CChunksAcked, int64(cum-st.acked.Load()))
					}
					st.acked.Store(cum)
					select {
					case st.ackCh <- struct{}{}:
					default: // sender already has a wakeup pending
					}
				}
			}

		case frameEditAck:
			s.mu.Lock()
			st := s.streams[f.id]
			s.mu.Unlock()
			if st != nil {
				select {
				case st.editAck <- struct{}{}:
				default: // duplicate ack from a broken client: drop
				}
			}

		case frameVerdictUpdate:
			s.mu.Lock()
			lf := s.lives[f.id]
			s.mu.Unlock()
			if lf != nil {
				lf.NoteVerdict(f.ver, f.flag != 0)
			}

		case frameReject:
			s.mu.Lock()
			st := s.streams[f.id]
			delete(s.streams, f.id)
			s.mu.Unlock()
			if st != nil {
				st.cancel() // halt the sender mid-serialization
				s.releaseSlot(st)
			}

		default:
			s.send(frame{typ: frameError, str: fmt.Sprintf("unexpected frame type %d", f.typ)})
			return
		}
	}
}

// openStream admits one stream — a fragment (open) or a subscription
// (subscribe, resume) — through one docking-point lookup, one gate
// admission and one registration, and starts its sender. A stream the
// host will not serve is answered with a stream error frame: bounded,
// never a hang.
func (s *session) openStream(ctx context.Context, f frame) {
	src, ok := s.sources[f.str]
	if !ok {
		s.streamErr(f.id, errors.New("no such docking point: "+f.str))
		return
	}
	ls, live := src.(LiveSource)
	if f.typ != frameOpen && !live {
		s.streamErr(f.id, errors.New("docking point is not live: "+f.str))
		return
	}
	if err := s.admitStream(f.str); err != nil {
		s.streamErr(f.id, err)
		return
	}
	sctx, scancel := context.WithCancel(ctx)
	st := newHostStream(scancel, f.str)
	var lf LiveFeedSrc
	var resumed bool
	var err error
	switch f.typ {
	case frameSubscribe:
		lf, err = ls.OpenLive(sctx)
	case frameResume:
		lf, resumed, err = ls.OpenLiveSince(sctx, f.ver)
	}
	if err != nil {
		scancel()
		s.releaseSlot(st)
		s.streamErr(f.id, err)
		return
	}
	s.mu.Lock()
	s.streams[f.id] = st
	if lf != nil {
		s.lives[f.id] = lf
	}
	s.mu.Unlock()
	s.wg.Add(1)
	switch f.typ {
	case frameOpen:
		go s.serveStream(sctx, f.id, st, src)
	case frameSubscribe:
		go s.serveLive(sctx, f.id, st, lf, Subscribed, resumed)
	default:
		go s.serveLive(sctx, f.id, st, lf, Resumed, resumed)
	}
}

// admitStream asks the session's gate to admit one more open transfer;
// ungated sessions admit everything. A refusal is answered with a
// stream error frame by the caller — bounded, never a hang.
func (s *session) admitStream(fn string) error {
	if s.gate == nil {
		return nil
	}
	return s.gate.OpenStream(fn)
}

// releaseSlot gives an admitted stream's slot back to the gate, once
// per stream however many of its endings race (a reject read, the End
// about to be written, the sender's exit).
func (s *session) releaseSlot(st *hostStream) {
	if s.gate != nil && st.released.CompareAndSwap(false, true) {
		s.gate.CloseStream(st.fn)
	}
}

// streamErr fails one stream with err's message; a *RefusedError keeps
// its refuse code on the wire, so the client can rebuild the typed
// refusal.
func (s *session) streamErr(id uint32, err error) {
	f := frame{typ: frameStreamErr, id: id, str: err.Error()}
	var ref *RefusedError
	if errors.As(err, &ref) {
		f.flag, f.str = byte(ref.Code), ref.Reason
	}
	s.send(f)
}

// serveStream runs one fragment transfer: capture the source's bytes,
// announce their length and the effective window, then ship chunk
// frames sliced from them as long as the receiver's cumulative acks
// leave credit — up to s.win unacked chunks are pipelined, so the sender
// is never idle a full round trip per chunk. A reject (or a dead
// session) cancels sctx: a parked sender wakes at once, and a sender
// with credit left notices before its next chunk, so at most one window
// past the failure point is ever shipped. A delivered stream stays
// registered until the receiver's last ack (lastAck) has been counted,
// or the session ends.
func (s *session) serveStream(sctx context.Context, id uint32, st *hostStream, src Source) {
	defer s.wg.Done()
	defer st.cancel()
	defer s.releaseSlot(st)
	defer s.unregister(id)
	fn := st.fn
	openStart := spanClock(s.obs)
	doc, err := serialized(src)
	if err == nil {
		if err := s.send(frame{typ: frameBegin, id: id, size: uint64(len(doc)), win: uint32(s.win)}); err != nil {
			return
		}
		s.obs.Span(obs.Span{Trace: s.trace, Name: "open", Frag: fn, Start: openStart, End: spanClock(s.obs), Bytes: int64(len(doc))})
	}
	chunksStart := spanClock(s.obs)
	if err == nil {
		err = s.shipCredited(sctx, id, st, doc)
	}
	span := obs.Span{Trace: s.trace, Name: "chunks", Frag: fn,
		Start: chunksStart, Bytes: st.sentBytes, N: int64(st.sentChunks)}
	switch {
	case err == nil:
		s.releaseSlot(st)
		s.sendAs(frame{typ: frameEnd, id: id}, Delivered, fn)
	case sctx.Err() != nil:
		// Rejected or torn down: the receiver is not listening.
		span.Err = "rejected"
	default:
		span.Err = err.Error()
		s.releaseSlot(st)
		s.streamErr(id, err)
	}
	span.End = spanClock(s.obs)
	s.obs.Span(span)
	if err == nil {
		// Its error is the stream's end (a reject or the session's),
		// which leaves nothing to report.
		st.awaitAck(sctx, lastAck(st.sentChunks, s.win))
	}
}

// unregister forgets a finished stream: later frames for its id are
// dropped.
func (s *session) unregister(id uint32) {
	s.mu.Lock()
	delete(s.streams, id)
	delete(s.lives, id)
	s.mu.Unlock()
}

// awaitAck parks until the receiver's cumulative ack reaches n, or sctx
// ends (its error is returned).
func (st *hostStream) awaitAck(sctx context.Context, n uint64) error {
	for st.acked.Load() < n {
		select {
		case <-st.ackCh:
		case <-sctx.Done():
			return sctx.Err()
		}
	}
	return nil
}

// shipCredited ships doc's chunks on a credit-windowed stream: park
// while the window is exhausted (sent − acked ≥ win), then ship every
// chunk the credit allows in one batch. sctx is checked before every
// batch, so a reject stops the sender within the credit it already had.
func (s *session) shipCredited(sctx context.Context, id uint32, st *hostStream, doc []byte) error {
	win := uint64(s.win)
	if s.obs != nil {
		// The RTT ring exists only when instrumented: one slot per
		// window credit, written at send, read by the read loop at ack.
		st.sendNs = make([]atomic.Int64, win)
	}
	for off := 0; off < len(doc); {
		if st.sentChunks >= win {
			// Chunk sent+1 needs a cumulative ack of sent+1−win.
			if err := st.awaitAck(sctx, st.sentChunks-win+1); err != nil {
				return err
			}
		}
		if err := sctx.Err(); err != nil {
			return err
		}
		// A hostile client can ack more chunks than were ever sent;
		// clamp to sent so the subtraction never wraps — an over-ack
		// grants at most a full window, it can never park the sender
		// forever or corrupt the credit arithmetic.
		acked := min(st.acked.Load(), st.sentChunks)
		var err error
		if off, err = s.sendChunks(id, st, doc, off, int(win-(st.sentChunks-acked)), acked); err != nil {
			return err
		}
	}
	return nil
}

// sendChunks writes the chunk frames of doc from off that a credit of
// n allows (chunkBatch) in one write call, and records each chunk's
// telemetry: the window occupancy and RTT-ring stamp before the write,
// the sent counters after it. acked is the cumulative ack the credit
// was computed from. It returns the offset after the last frame.
func (s *session) sendChunks(id uint32, st *hostStream, doc []byte, off, n int, acked uint64) (int, error) {
	n = chunkBatch(doc, off, s.budget, n)
	sent := st.sentChunks
	if ring := st.sendNs; ring != nil {
		// Occupancy is sampled before the send: how many credits were
		// already consumed when each chunk went out.
		now := s.obs.Nanos()
		for i := range uint64(n) {
			s.obs.Observe(obs.HWindowOccupancy, int64(sent+i-acked))
			ring[(sent+i)%uint64(len(ring))].Store(now)
		}
	}
	end := off
	err := s.write(n, func() (err error) {
		end, err = s.fw.writeChunks(id, doc, off, s.budget, n)
		return err
	})
	if err != nil {
		return end, err
	}
	st.sentChunks += uint64(n)
	if st.sendNs != nil {
		s.obs.Add(obs.CChunksSent, int64(n))
		for o := off; o < end; {
			c := nextChunk(doc, o, s.budget)
			s.obs.Observe(obs.HChunkBytes, int64(len(c)))
			o += len(c)
		}
		st.sentBytes += int64(end - off)
	}
	return end, nil
}

// serveLive runs one subscription: announce the snapshot cut, ship the
// snapshot in credit-windowed chunk frames (like any fragment), mark
// its end, then forward edits as they are published — each edit waits
// for its own ack before the next is pulled (edits stay stop-and-wait),
// so a slow subscriber backpressures the editor's log reader rather
// than flooding the socket. A reject (unsubscribe) or session teardown
// cancels sctx and the loop exits at the next handoff. A resumed
// subscription's snapshot is empty (the subscriber kept its replica),
// so the phase structure is unchanged: subscribed, zero chunks, end,
// edits from the announced version on. kind labels the subscribed frame
// for the observer: Subscribed, or Resumed for a resume request.
func (s *session) serveLive(sctx context.Context, id uint32, st *hostStream, lf LiveFeedSrc, kind Kind, resumed bool) {
	defer s.wg.Done()
	defer st.cancel()
	defer s.releaseSlot(st)
	defer lf.Close()
	defer s.unregister(id)
	rflag := byte(0)
	if resumed {
		rflag = 1
	}
	snap, err := serialized(lf)
	if err == nil {
		if err := s.sendAs(frame{typ: frameSubscribed, id: id, ver: lf.Version(), size: uint64(len(snap)), flag: rflag, win: uint32(s.win)},
			kind, st.fn); err != nil {
			return
		}
		err = s.shipCredited(sctx, id, st, snap)
	}
	if err != nil {
		if sctx.Err() == nil {
			s.releaseSlot(st)
			s.streamErr(id, err)
		}
		return
	}
	if err := s.send(frame{typ: frameEnd, id: id}); err != nil {
		return
	}
	pos := lf.Version()
	for {
		e, err := lf.NextEdit(sctx, pos)
		if err != nil {
			if sctx.Err() == nil {
				s.releaseSlot(st)
				s.streamErr(id, err)
			}
			return
		}
		pos = e.Version
		if err := s.send(frame{typ: frameEdit, id: id, ver: e.Version, flag: e.Op, addr: e.Addr, data: e.Doc}); err != nil {
			return
		}
		select {
		case <-st.editAck:
		case <-sctx.Done():
			return
		}
	}
}
