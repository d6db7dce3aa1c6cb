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

// Liveness defaults. The kernel peer pings after DefaultHeartbeat of
// write silence; both ends refuse to wait more than DefaultTimeout for
// the peer's next frame. Because every ping is answered with a pong,
// an idle but healthy session sees traffic in both directions within
// one heartbeat, and a dead peer is detected within one timeout — never
// the unbounded hang the pre-liveness wire allowed.
const (
	DefaultHeartbeat = 2 * time.Second
	DefaultTimeout   = 10 * time.Second
)

// resolveLiveness maps a config duration to its effective value: zero
// means the default, negative disables (returns 0).
func resolveLiveness(d, def time.Duration) time.Duration {
	switch {
	case d == 0:
		return def
	case d < 0:
		return 0
	}
	return d
}

// Config parameterizes a session (Dial or Pipe) from the kernel peer's
// side.
type Config struct {
	// Digest is the design fingerprint exchanged in the hello; the
	// server refuses a mismatch. See Digest.
	Digest []byte
	// Chunk is the fragment chunk budget in bytes the server will
	// serialize with (math.MaxInt or <= 0 for unchunked).
	Chunk int
	// Window is the per-stream credit window this receiver grants in the
	// hello: the host may pipeline up to Window unacked chunks per
	// stream. Zero means DefaultWindow; negative is invalid
	// (ErrInvalidWindow); values above the transport-wide maximum are
	// clamped. The host may lower the grant (its own cap); the effective
	// window is echoed per stream in the begin/subscribed frame. Window 1
	// degenerates to stop-and-wait.
	Window int
	// Heartbeat is the ping interval: after this much write silence the
	// client sends a ping so the host sees traffic. Zero means
	// DefaultHeartbeat; negative disables the heartbeat.
	Heartbeat time.Duration
	// Timeout is the liveness window: every frame read and write
	// carries a deadline this far out, and missing it fails the session
	// with a TimeoutError. Zero means DefaultTimeout; negative disables
	// deadlines (the pre-liveness behavior). It should comfortably
	// exceed Heartbeat.
	Timeout time.Duration
	// Obs, when non-nil, receives this session's telemetry: frame
	// encode/decode timing and per-fragment lifecycle spans tagged with
	// the trace ID minted at the hello. Nil (the default) is the no-op
	// sink — the hot paths then pay one nil check and nothing else.
	Obs *obs.Collector
	// Observer, when non-nil, observes every frame this session writes
	// or reads, as raw wire bytes tagged with the session's trace ID.
	// Nil (the default) costs the hot paths one nil check and nothing
	// else.
	Observer Observer
}

// Conn is an established session with one peer host, over TCP (Dial)
// or an in-memory pipe (Pipe), from the kernel peer's side. It
// multiplexes concurrent verdict requests, fragment streams and live
// subscriptions over a single connection; methods are safe for
// concurrent use.
type Conn struct {
	endpoint // trace: minted at the hello, shared with the host

	heartbeat time.Duration // ping-after-idle interval (0: no pings)
	pingID    atomic.Uint32

	window  int       // credit window granted per stream (chunks)
	bufPool sync.Pool // *[]byte chunk/edit payload buffers, reused across frames

	nextID  atomic.Uint32
	mu      sync.Mutex // guards pending and doneErr
	pending map[uint32]*waiter

	done    chan struct{} // closed when the read loop exits
	doneErr error         // why (valid after done)

	served <-chan struct{} // Pipe only: closed when the host side has finished
}

// dispatch is one frame handed from the read loop to a waiter. Chunk
// and edit payloads are copied into a pooled buffer (buf), because the
// frame reader's decode buffer is overwritten by the next read; the
// consumer returns buf to the conn's pool when it picks up the stream's
// next frame, so a transfer of any length cycles through at most
// window+1 buffers instead of allocating per frame.
type dispatch struct {
	f   frame
	buf *[]byte
}

// waiter is one request's or stream's dispatch slot.
type waiter struct {
	ch chan dispatch
}

// Dial connects to a peer host, performs the hello exchange, and
// returns the session. The configured digest must match the host's.
func Dial(addr string, cfg Config) (*Conn, error) {
	win, err := grantWindow(cfg)
	if err != nil {
		return nil, err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return dialConn(nc, cfg, win)
}

// Pipe serves hcfg's sources on one end of an in-memory connection and
// dials the other end with cfg: a session that runs the TCP host's
// serving loop and the TCP client's hello without a socket, so routing,
// admission, refusals, credit windows, resume, deadlines, observers and obs
// are those of the TCP wire. Close returns only after the host side has
// finished, with the session's route released.
func Pipe(hcfg HostConfig, cfg Config) (*Conn, error) {
	win, err := grantWindow(cfg)
	if err != nil {
		return nil, err
	}
	hc, cc := net.Pipe()
	h := &Host{cfg: hcfg, ctx: context.Background()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.serveSession(hc)
	}()
	c, err := dialConn(cc, cfg, win)
	if err != nil {
		<-served
		return nil, err
	}
	c.served = served
	return c, nil
}

// grantWindow resolves the credit window a session grants in its hello.
func grantWindow(cfg Config) (int, error) {
	if cfg.Window < 0 {
		return 0, fmt.Errorf("transport: dial: %w", ErrInvalidWindow)
	}
	if cfg.Window == 0 {
		return DefaultWindow, nil
	}
	return clampWindow(cfg.Window, 0), nil
}

// dialConn runs the client half of the hello exchange on an established
// connection and starts the session's read loop. It closes nc on every
// error return.
func dialConn(nc net.Conn, cfg Config, win int) (*Conn, error) {
	c := &Conn{
		heartbeat: resolveLiveness(cfg.Heartbeat, DefaultHeartbeat),
		window:    win,
		pending:   map[uint32]*waiter{},
		done:      make(chan struct{}),
	}
	c.init(nc, resolveLiveness(cfg.Timeout, DefaultTimeout), cfg.Obs)
	c.observeAs(cfg.Observer, obs.NewTraceID())
	c.bufPool.New = func() any { return new([]byte) }
	helloStart := spanClock(cfg.Obs)
	if err := c.send(frame{
		typ:  frameHello,
		flag: protocolVersion,
		id:   wireChunk(cfg.Chunk),
		win:  uint32(win),
		ver:  c.trace,
		data: cfg.Digest,
	}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	c.armReadDeadline()
	f, err := c.fr.read()
	if err != nil {
		nc.Close()
		if isTimeout(err) {
			return nil, &TimeoutError{Op: "hello", After: c.timeout}
		}
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	switch f.typ {
	case frameWelcome:
		if f.flag != protocolVersion {
			nc.Close()
			return nil, fmt.Errorf("transport: protocol version mismatch: host speaks v%d, this client v%d", f.flag, protocolVersion)
		}
		if !bytes.Equal(f.data, cfg.Digest) {
			nc.Close()
			return nil, fmt.Errorf("transport: design digest mismatch (the host serves a different design)")
		}
	case frameRefuse:
		// A typed refusal: the host named its cause on the wire, so the
		// error unwraps to ErrUnknownDesign or ErrOverCapacity and the
		// caller can tell "not registered here" from "back off and
		// retry".
		nc.Close()
		return nil, &RefusedError{Code: RefuseCode(f.flag), Reason: f.str}
	case frameError:
		nc.Close()
		return nil, fmt.Errorf("transport: host refused session: %s", f.str)
	default:
		nc.Close()
		return nil, fmt.Errorf("transport: unexpected hello response (frame type %d)", f.typ)
	}
	c.obs.Span(obs.Span{Trace: c.trace, Name: "hello", Start: helloStart, End: spanClock(cfg.Obs)})
	go c.readLoop()
	if c.heartbeat > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// spanClock returns the wall-clock span timestamp, or 0 when no trace
// sink is attached: span boundaries are the only place the transport
// consults the wall clock, and only when someone is listening. Spans
// use wall-clock Unix nanos (not the collector's monotonic epoch) so
// the two processes' JSONL streams stitch onto one timeline.
func spanClock(c *obs.Collector) int64 {
	if c.Trace() == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// heartbeatLoop keeps an idle session visibly alive: after a heartbeat
// interval with no frame written, it sends a ping. The host answers
// with a pong, so both ends see traffic within one heartbeat whenever
// the path is healthy — the read deadlines then only ever fire on a
// genuinely dead peer.
func (c *Conn) heartbeatLoop() {
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if time.Since(time.Unix(0, c.lastWrite.Load())) < c.heartbeat {
				continue // the session is writing on its own; no probe needed
			}
			if c.send(frame{typ: framePing, id: c.pingID.Add(1)}) != nil {
				return // the read loop surfaces the session failure
			}
		case <-c.done:
			return
		}
	}
}

// readLoop dispatches incoming frames to their waiting request or
// stream; frames for aborted or finished streams are dropped.
func (c *Conn) readLoop() {
	var err error
	for {
		var f frame
		if f, err = c.read(); err != nil {
			break
		}
		if f.typ == frameError {
			err = fmt.Errorf("transport: host error: %s", f.str)
			break
		}
		// Liveness frames are handled before stream dispatch: their token
		// ids share nothing with stream ids and must not be routed. A
		// failed echo surfaces on the next read.
		if ok, _ := c.liveness(f); ok {
			continue
		}
		c.mu.Lock()
		w := c.pending[f.id]
		c.mu.Unlock()
		if w == nil {
			continue // late response for an aborted stream: drop
		}
		d := dispatch{f: f}
		if f.typ == frameChunk || f.typ == frameEdit {
			// The frame reader's decode buffer is overwritten by the
			// next read, so the payload is copied out — into a pooled
			// buffer the consumer returns when it picks up the stream's
			// next frame, keeping the hot path allocation-steady at any
			// window size.
			bp := c.bufPool.Get().(*[]byte)
			*bp = append((*bp)[:0], f.data...)
			d.f.data, d.buf = *bp, bp
		}
		select {
		case w.ch <- d:
		default:
			// A conforming host never has more frames in flight per
			// stream than the dispatch buffer holds (the credit window
			// bounds unacked chunks); overflow means the protocol is
			// broken, and dropping or blocking would hang the session in
			// harder-to-debug ways.
			err = fmt.Errorf("transport: host overran stream %d", f.id)
		}
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		err = fmt.Errorf("transport: session closed by host")
	}
	c.mu.Lock()
	c.doneErr = err
	c.mu.Unlock()
	close(c.done)
}

// register allocates an id and its dispatch slot with the given
// capacity. Verdict requests use a small fixed slot; streams size
// theirs to the credit window (window unacked chunks can be in flight
// at once, plus the begin/end/error envelope and a trailing edit).
func (c *Conn) register(slots int) (uint32, *waiter) {
	id := c.nextID.Add(1)
	w := &waiter{ch: make(chan dispatch, slots)}
	c.mu.Lock()
	c.pending[id] = w
	c.mu.Unlock()
	return id, w
}

// streamSlots is the dispatch capacity for a credit-windowed stream:
// up to window unacked chunks, plus Begin/End/StreamErr and one edit
// frame interleaving at phase boundaries.
func (c *Conn) streamSlots() int { return c.window + 4 }

func (c *Conn) unregister(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// TraceID returns the session's trace ID: minted at Dial, carried in
// the hello, and tagged onto every telemetry span both processes emit
// for this session.
func (c *Conn) TraceID() uint64 { return c.trace }

// sessionErr reports why the session died.
func (c *Conn) sessionErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.doneErr != nil {
		return c.doneErr
	}
	return fmt.Errorf("transport: session closed")
}

// Verdict asks the host to validate fn's document against its local
// type and waits for the answer.
func (c *Conn) Verdict(ctx context.Context, fn string) (bool, error) {
	id, w := c.register(4)
	defer c.unregister(id)
	start := spanClock(c.obs)
	if err := c.send(frame{typ: frameVerdictReq, id: id, str: fn}); err != nil {
		return false, err
	}
	select {
	case d := <-w.ch:
		f := d.f
		switch f.typ {
		case frameVerdict:
			c.obs.Span(obs.Span{Trace: c.trace, Name: "verdict", Frag: fn, Start: start, End: spanClock(c.obs)})
			return f.flag != 0, nil
		case frameStreamErr:
			return false, fmt.Errorf("transport: verdict %s: %s", fn, f.str)
		default:
			return false, fmt.Errorf("transport: unexpected frame type %d for verdict request", f.typ)
		}
	case <-ctx.Done():
		// Withdraw the request so the host stops validating
		// mid-document — the short-circuit behavior in-process peers
		// get from their shared context.
		c.send(frame{typ: frameVerdictCancel, id: id})
		return false, ctx.Err()
	case <-c.done:
		return false, c.sessionErr()
	}
}

// Open requests fn's fragment stream and waits for the host to announce
// it (a Begin frame carrying the total size).
func (c *Conn) Open(ctx context.Context, fn string) (Fragment, error) {
	start := spanClock(c.obs)
	r, f, err := c.announce(ctx, frame{typ: frameOpen, str: fn})
	if err != nil {
		return nil, err
	}
	c.obs.Span(obs.Span{Trace: c.trace, Name: "open", Frag: fn, Start: start, End: spanClock(c.obs), Bytes: int64(f.size)})
	return &tcpFragment{chunkRecv: r, fn: fn, size: int(f.size), opened: spanClock(c.obs)}, nil
}

// Subscribe opens a live subscription on fn's edit log and waits for
// the host to announce the snapshot cut.
func (c *Conn) Subscribe(ctx context.Context, fn string) (EditFeed, error) {
	return c.subscribe(ctx, frame{typ: frameSubscribe, str: fn})
}

// Resubscribe reopens a live subscription after a disconnect: `after`
// is the last edit version this peer applied. When the host's log still
// covers the suffix, the returned feed is Resumed() — no snapshot, the
// first edit carries after+1. Otherwise the host falls back to a fresh
// full snapshot cut (the log was compacted past `after`) and the feed
// behaves exactly like a new subscription.
func (c *Conn) Resubscribe(ctx context.Context, fn string, after uint64) (EditFeed, error) {
	return c.subscribe(ctx, frame{typ: frameResume, ver: after, str: fn})
}

func (c *Conn) subscribe(ctx context.Context, req frame) (EditFeed, error) {
	r, f, err := c.announce(ctx, req)
	if err != nil {
		return nil, err
	}
	return &tcpEditFeed{chunkRecv: r, base: f.ver, size: int(f.size), resumed: f.flag != 0}, nil
}

// announce is the stream handshake behind Open, Subscribe and
// Resubscribe: register a stream, send its request (req, an open,
// subscribe or resume frame), and wait for the host to announce it — a
// begin frame for an open, a subscribed frame otherwise. The
// announcement echoes the effective window the host will honor; a
// conforming host never raises the hello grant. On success the stream's
// chunks are received through the returned chunkRecv.
func (c *Conn) announce(ctx context.Context, req frame) (chunkRecv, frame, error) {
	want, op := frameBegin, "open"
	if req.typ != frameOpen {
		want, op = frameSubscribed, "subscribe"
	}
	id, w := c.register(c.streamSlots())
	req.id = id
	if err := c.send(req); err != nil {
		c.unregister(id)
		return chunkRecv{}, frame{}, err
	}
	var err error
	var reject string // the reason a reject frame halts the host's sender
	select {
	case d := <-w.ch:
		f := d.f
		switch {
		case f.typ == frameStreamErr:
			err = fmt.Errorf("transport: %s %s: %w", op, req.str, streamError(f))
		case f.typ != want:
			err = fmt.Errorf("transport: %s %s: unexpected frame type %d", op, req.str, f.typ)
		case f.win < 1 || int(f.win) > c.window:
			reject = "bad window echo"
			err = fmt.Errorf("transport: %s %s: host announced window %d outside granted [1,%d]", op, req.str, f.win, c.window)
		default:
			return chunkRecv{conn: c, id: id, w: w, acks: newAcks(int(f.win))}, f, nil
		}
	case <-ctx.Done():
		// Halt the transfer the caller no longer wants; the host's
		// stream goroutine would otherwise park on its first ack.
		reject, err = op+" canceled", ctx.Err()
	case <-c.done:
		err = c.sessionErr()
	}
	c.unregister(id)
	if reject != "" {
		c.send(frame{typ: frameReject, id: id, str: reject})
	}
	return chunkRecv{}, frame{}, err
}

// streamError rebuilds a stream-error frame's cause: a typed
// *RefusedError when the host refused the stream under admission
// control, the host's message otherwise.
func streamError(f frame) error {
	if f.flag != 0 {
		return &RefusedError{Code: RefuseCode(f.flag), Reason: f.str}
	}
	return errors.New(f.str)
}

// acks is a receiver's cumulative-ack state for one credit-windowed
// stream: a fragment, or a subscription's snapshot.
type acks struct {
	every     uint64 // ack once this many consumed chunks are unacked (ackEvery)
	received  uint64 // chunks picked up so far
	lastAcked uint64 // cumulative count in the last ack sent
}

// newAcks is the ack state for a stream whose effective window (the
// host's begin or subscribed echo) is win.
func newAcks(win int) acks { return acks{every: ackEvery(win)} }

// ackEvery is the receiver's ack threshold at window win: max(1, win/2)
// consumed chunks per cumulative ack. The host reads the same rule to
// know a stream's last ack (lastAck).
func ackEvery(win int) uint64 { return uint64(max(1, win/2)) }

// lastAck is the last cumulative ack a receiver that consumes all n
// chunks of a stream at window win ever sends: ⌊n/t⌋·t, t = ackEvery(win).
func lastAck(n uint64, win int) uint64 {
	t := ackEvery(win)
	return n / t * t
}

// settle runs before the receiver waits for its next chunk: once the
// consumed but unacked chunks reach max(1, window/2), one cumulative ack
// replenishes the sender's credits for all of them. This cannot
// deadlock: every wait starts with received − lastAcked < every ≤
// window, so the awaited chunk (number received+1 ≤ lastAcked + window)
// is always within the credit the sender already holds. Acking on the
// next call, not on receipt, keeps rejection prompt: a receiver that
// rejects after chunk k has never acked it. With a window of 1 this is
// the stop-and-wait wire: one ack per chunk.
func (a *acks) settle(c *Conn, id uint32) error {
	if a.received-a.lastAcked < a.every {
		return nil
	}
	a.lastAcked = a.received
	return c.send(frame{typ: frameAck, id: id, ver: a.lastAcked})
}

// chunkRecv is the receiver side of one credit-windowed chunk stream,
// behind both Fragment.Next and the snapshot phase of EditFeed.NextChunk.
type chunkRecv struct {
	conn  *Conn
	id    uint32
	w     *waiter
	acks  acks
	prev  *[]byte // pooled buffer behind the last returned chunk
	bytes int64   // payload bytes received so far
}

// next acknowledges the chunks consumed so far, cumulatively, once
// max(1, window/2) of them are unacked (acks.settle), and waits for the
// stream's next chunk; the end frame is io.EOF. A receiver that rejects
// after chunk k has never acked it, so the sender holds at most
// window-1 further chunks of credit and serializes nothing past that.
func (r *chunkRecv) next() ([]byte, error) {
	r.conn.release(r.prev)
	r.prev = nil
	if err := r.acks.settle(r.conn, r.id); err != nil {
		return nil, err
	}
	select {
	case d := <-r.w.ch:
		switch f := d.f; f.typ {
		case frameChunk:
			r.acks.received++
			r.bytes += int64(len(f.data))
			r.prev = d.buf
			return f.data, nil
		case frameEnd:
			return nil, io.EOF
		case frameStreamErr:
			r.conn.unregister(r.id)
			return nil, fmt.Errorf("transport: stream failed: %s", f.str)
		default:
			return nil, fmt.Errorf("transport: unexpected frame type %d mid-stream", f.typ)
		}
	case <-r.conn.done:
		return nil, r.conn.sessionErr()
	}
}

// release returns a pooled payload buffer once its chunk or edit is no
// longer referenced by the caller.
func (c *Conn) release(bp *[]byte) {
	if bp != nil {
		c.bufPool.Put(bp)
	}
}

// tcpEditFeed is the receiver side of one subscription: snapshot chunks
// first (credit-windowed and cumulatively acked like a fragment
// transfer), then edits (stop-and-wait, acked with their version).
type tcpEditFeed struct {
	chunkRecv // snapshot chunks
	base      uint64
	size      int
	resumed   bool

	prevEdit    *[]byte // pooled buffer behind the last returned edit
	owesEditAck bool
	lastVer     uint64
	closed      bool
}

func (f *tcpEditFeed) Base() uint64      { return f.base }
func (f *tcpEditFeed) SnapshotSize() int { return f.size }
func (f *tcpEditFeed) Resumed() bool     { return f.resumed }

// NextChunk returns the snapshot's next chunk; at its end the stream
// stays registered for edits.
func (f *tcpEditFeed) NextChunk() ([]byte, error) {
	if f.closed {
		return nil, fmt.Errorf("transport: read from closed subscription")
	}
	return f.next()
}

func (f *tcpEditFeed) NextEdit(ctx context.Context) (EditFrame, error) {
	if f.closed {
		return EditFrame{}, fmt.Errorf("transport: read from closed subscription")
	}
	f.conn.release(f.prevEdit)
	f.prevEdit = nil
	if f.owesEditAck {
		f.owesEditAck = false
		if err := f.conn.send(frame{typ: frameEditAck, id: f.id, ver: f.lastVer}); err != nil {
			return EditFrame{}, err
		}
	}
	select {
	case d := <-f.w.ch:
		fr := d.f
		switch fr.typ {
		case frameEdit:
			f.owesEditAck = true
			f.lastVer = fr.ver
			f.prevEdit = d.buf
			return EditFrame{Version: fr.ver, Op: fr.flag, Addr: fr.addr, Doc: fr.data}, nil
		case frameStreamErr:
			f.conn.unregister(f.id)
			return EditFrame{}, fmt.Errorf("transport: subscription failed: %s", fr.str)
		default:
			return EditFrame{}, fmt.Errorf("transport: unexpected frame type %d in edit stream", fr.typ)
		}
	case <-ctx.Done():
		return EditFrame{}, ctx.Err()
	case <-f.conn.done:
		return EditFrame{}, f.conn.sessionErr()
	}
}

func (f *tcpEditFeed) SendVerdict(version uint64, valid bool) error {
	v := byte(0)
	if valid {
		v = 1
	}
	return f.conn.send(frame{typ: frameVerdictUpdate, id: f.id, ver: version, flag: v})
}

// Close unsubscribes: the reject frame halts the host's edit sender.
func (f *tcpEditFeed) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.conn.unregister(f.id)
	return f.conn.send(frame{typ: frameReject, id: f.id, str: "unsubscribed"})
}

// Close tears the session down; in-flight operations fail. On a Pipe
// it also waits for the host side, so the session's route has been
// released when Close returns.
func (c *Conn) Close() error {
	err := c.c.Close()
	<-c.done // wait for the read loop so no dispatch races the caller
	if c.served != nil {
		<-c.served
	}
	return err
}

// tcpFragment is the receiver side of one fragment stream.
type tcpFragment struct {
	chunkRecv
	fn      string
	size    int
	opened  int64 // spanClock at open, for the chunks span
	aborted bool
}

func (f *tcpFragment) Size() int { return f.size }

// Next returns the fragment's next chunk (chunkRecv.next); with a
// window of 1 this is exactly the stop-and-wait wire: one ack per
// chunk, sender parked in between.
func (f *tcpFragment) Next() ([]byte, error) {
	if f.aborted {
		return nil, fmt.Errorf("transport: read from aborted stream")
	}
	chunk, err := f.next()
	if err == io.EOF {
		f.conn.unregister(f.id)
		f.span("")
	}
	return chunk, err
}

// span records the transfer's chunks span, ending now.
func (f *tcpFragment) span(err string) {
	f.conn.obs.Span(obs.Span{
		Trace: f.conn.trace, Name: "chunks", Frag: f.fn,
		Start: f.opened, End: spanClock(f.conn.obs),
		Bytes: f.bytes, N: int64(f.acks.received), Err: err,
	})
}

// DuplicateAck re-sends the last cumulative ack, verbatim. It exists
// for fault injection: a duplicated ack must never grant the sender
// extra credit, and re-sending the same cumulative count is the exact
// wire event a retransmitting network would produce.
func (f *tcpFragment) DuplicateAck() error {
	if f.aborted {
		return fmt.Errorf("transport: ack on aborted stream")
	}
	return f.conn.send(frame{typ: frameAck, id: f.id, ver: f.acks.lastAcked})
}

// Abort rejects the transfer: the reject frame halts the sender, and
// the stream's remaining frames (at most an in-flight End) are dropped.
func (f *tcpFragment) Abort() {
	if f.aborted {
		return
	}
	f.aborted = true
	f.conn.unregister(f.id)
	f.span("aborted")
	f.conn.send(frame{typ: frameReject, id: f.id, str: "rejected by receiver"})
}
