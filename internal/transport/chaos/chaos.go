// Package chaos is the deterministic fault-injection seam for the
// transport layer: a Session wrapper that misdelivers frames on a
// seeded or scripted schedule, and a net.Listener wrapper that breaks
// accepted TCP connections the same way. Both are driven by a Schedule,
// so every run — including its failures — replays exactly from a seed.
//
// The wrapper injects at the receiver-facing seam (Fragment.Next,
// EditFeed.NextChunk/NextEdit, the session calls), which is what makes
// it transport-agnostic: the same schedule perturbs the in-process
// loopback and the TCP wire identically, and the differential chaos
// corpus can require both to converge to the fault-free run's verdict
// and accounting or fail with a clean typed error — never a panic,
// never a hang, never a wrong verdict.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dxml/internal/transport"
)

// ErrInjected is the typed failure every injected connection drop
// surfaces as; errors.Is distinguishes it from organic transport
// errors in tests.
var ErrInjected = errors.New("chaos: injected connection drop")

// Fault enumerates the injectable misbehaviors.
type Fault uint8

const (
	// FaultNone: deliver normally.
	FaultNone Fault = iota
	// FaultDrop: the connection dies — this operation and every later
	// one on the session fails with ErrInjected, and a wrapped TCP
	// session's socket is really closed (the host sees the disconnect).
	FaultDrop
	// FaultDelay: the frame is delivered late.
	FaultDelay
	// FaultTruncate: the frame arrives cut short and the connection
	// dies — the receiver gets a prefix of the bytes, then ErrInjected.
	FaultTruncate
	// FaultStallAck: the receiver sits on its ack — on a credit-windowed
	// wire (TCP, Pipe), once the sender exhausts its window it parks
	// (with a window of 1, immediately; wider windows absorb the stall
	// until their credits run out) — then proceeds. In process no chunk
	// is cut before the receiver asks for it, so the stall is a delay.
	FaultStallAck
	// FaultDuplicate: a frame is delivered twice. On an edit feed it is
	// the at-least-once redelivery a reconnecting subscriber must
	// tolerate, without the reconnect; on a fragment stream it is a
	// retransmitted cumulative ack, which must never grant the sender
	// extra credit (only fragments whose transport exposes ack
	// duplication — TCP — offer this opportunity).
	FaultDuplicate
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultTruncate:
		return "truncate"
	case FaultStallAck:
		return "stall-ack"
	case FaultDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// Schedule decides, at each delivery opportunity, whether to inject a
// fault. It is either scripted (an explicit fault sequence, consumed as
// opportunities arise that can express it) or seeded-random (each
// opportunity injects with a fixed probability until a fault budget is
// exhausted — the budget is what guarantees a faulted run terminates).
// A Schedule is safe for concurrent use and may be shared across the
// sessions of one run, including sessions created by reconnects.
type Schedule struct {
	mu       sync.Mutex
	rng      *rand.Rand
	script   []Fault
	pos      int
	prob     float64
	left     int
	injected int
	delay    time.Duration
	disarmed bool
}

// Seeded builds a random schedule: each delivery opportunity draws a
// fault with probability prob, until maxFaults have been injected.
// Identical seeds replay identical runs.
func Seeded(seed int64, prob float64, maxFaults int) *Schedule {
	return &Schedule{rng: rand.New(rand.NewSource(seed)), prob: prob, left: maxFaults, delay: 2 * time.Millisecond}
}

// Script builds a scripted schedule: each listed fault fires at the
// first delivery opportunity that can express it, in order.
func Script(faults ...Fault) *Schedule {
	return &Schedule{script: faults, delay: 2 * time.Millisecond}
}

// SetDelay overrides the sleep used for delay and stall faults.
func (s *Schedule) SetDelay(d time.Duration) *Schedule {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
	return s
}

// Arm turns injection on or off without disturbing the schedule's
// state. A disarmed schedule passes every delivery through — tests use
// this to let a session establish itself (the initial subscriptions and
// snapshots, which have no recovery path) before the faults start.
func (s *Schedule) Arm(on bool) *Schedule {
	s.mu.Lock()
	s.disarmed = !on
	s.mu.Unlock()
	return s
}

// Consumed reports how many faults the schedule has injected so far.
// Tests use it to assert a corpus actually exercised its faults rather
// than passing vacuously.
func (s *Schedule) Consumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// draw picks the fault to inject at an opportunity that can express
// `kinds`, or FaultNone.
func (s *Schedule) draw(kinds ...Fault) Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disarmed {
		return FaultNone
	}
	if s.script != nil {
		if s.pos >= len(s.script) {
			return FaultNone
		}
		next := s.script[s.pos]
		for _, k := range kinds {
			if k == next {
				s.pos++
				s.injected++
				return next
			}
		}
		return FaultNone
	}
	if s.rng == nil || s.left <= 0 || s.rng.Float64() >= s.prob {
		return FaultNone
	}
	s.left--
	s.injected++
	return kinds[s.rng.Intn(len(kinds))]
}

func (s *Schedule) sleep() {
	s.mu.Lock()
	d := s.delay
	s.mu.Unlock()
	time.Sleep(d)
}

// Session wraps a transport session with fault injection. It implements
// transport.Session, and forwards live subscriptions (Subscribe /
// Resubscribe) when the wrapped session is a transport.LiveSession, so
// one-shot and live sessions run under the same chaos.
type Session struct {
	inner transport.Session
	sched *Schedule

	mu      sync.Mutex
	dropped bool
}

// Wrap puts sched's faults between a session and its consumer.
func Wrap(inner transport.Session, sched *Schedule) *Session {
	return &Session{inner: inner, sched: sched}
}

// alive fails every operation after an injected drop.
func (s *Session) alive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped {
		return ErrInjected
	}
	return nil
}

// drop kills the session: later operations fail with ErrInjected, and
// the wrapped session is closed for real — a TCP host observes the
// disconnect exactly as it would a peer crash.
func (s *Session) drop() error {
	s.mu.Lock()
	already := s.dropped
	s.dropped = true
	s.mu.Unlock()
	if !already {
		s.inner.Close()
	}
	return ErrInjected
}

func (s *Session) Verdict(ctx context.Context, fn string) (bool, error) {
	if err := s.alive(); err != nil {
		return false, err
	}
	switch s.sched.draw(FaultDrop, FaultDelay) {
	case FaultDrop:
		return false, s.drop()
	case FaultDelay:
		s.sched.sleep()
	}
	return s.inner.Verdict(ctx, fn)
}

func (s *Session) Open(ctx context.Context, fn string) (transport.Fragment, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	switch s.sched.draw(FaultDrop, FaultDelay) {
	case FaultDrop:
		return nil, s.drop()
	case FaultDelay:
		s.sched.sleep()
	}
	frag, err := s.inner.Open(ctx, fn)
	if err != nil {
		return nil, err
	}
	return &fragment{s: s, inner: frag}, nil
}

// Subscribe forwards a live subscription under chaos. The subscription
// handshake itself is only delayed, never dropped — drops hit the feed's
// deliveries (NextChunk/NextEdit), where the consumer has a recovery
// path scoped to that one subscription.
func (s *Session) Subscribe(ctx context.Context, fn string) (transport.EditFeed, error) {
	return s.subscribe(func(ls transport.LiveSession) (transport.EditFeed, error) {
		return ls.Subscribe(ctx, fn)
	})
}

// Resubscribe forwards a resumed subscription under chaos.
func (s *Session) Resubscribe(ctx context.Context, fn string, after uint64) (transport.EditFeed, error) {
	return s.subscribe(func(ls transport.LiveSession) (transport.EditFeed, error) {
		return ls.Resubscribe(ctx, fn, after)
	})
}

// subscribe runs one subscription handshake on the wrapped live
// session, delayed but never dropped, and puts the feed under chaos.
func (s *Session) subscribe(open func(transport.LiveSession) (transport.EditFeed, error)) (transport.EditFeed, error) {
	ls, ok := s.inner.(transport.LiveSession)
	if !ok {
		return nil, fmt.Errorf("chaos: wrapped session %T does not support live subscriptions", s.inner)
	}
	if err := s.alive(); err != nil {
		return nil, err
	}
	if s.sched.draw(FaultDelay) == FaultDelay {
		s.sched.sleep()
	}
	feed, err := open(ls)
	if err != nil {
		return nil, err
	}
	return &editFeed{s: s, inner: feed}, nil
}

func (s *Session) Close() error { return s.inner.Close() }

// fragment injects receive-side faults into one chunked transfer.
type fragment struct {
	s     *Session
	inner transport.Fragment
}

func (f *fragment) Size() int { return f.inner.Size() }
func (f *fragment) Abort()    { f.inner.Abort() }

// ackDuplicator is the optional seam a fragment exposes for replaying
// its last cumulative ack on the wire — the TCP fragment implements it;
// the in-process handoff has no acks to duplicate.
type ackDuplicator interface {
	DuplicateAck() error
}

// Next injects on the fragment stream. FaultTruncate is deliberately
// not drawn here: the length-prefixed codec never surfaces a torn frame
// as data (the hostile-input tests pin that), so above the codec a
// mid-frame death is indistinguishable from FaultDrop — and silently
// delivering a prefix would be corruption the validation protocol is
// *designed* to read as an invalid document, i.e. a wrong verdict by
// construction, not a bug. Truncated payloads are injected on the live
// snapshot path instead (NextChunk), where a decoder guards the result.
// FaultDuplicate is drawn only when the inner fragment can express it
// (an ack-carrying wire): the injected event is a retransmitted
// cumulative ack, which a credit-window sender must treat as a no-op.
func (f *fragment) Next() ([]byte, error) {
	if err := f.s.alive(); err != nil {
		return nil, err
	}
	kinds := []Fault{FaultDrop, FaultDelay, FaultStallAck}
	dup, canDup := f.inner.(ackDuplicator)
	if canDup {
		kinds = append(kinds, FaultDuplicate)
	}
	switch f.s.sched.draw(kinds...) {
	case FaultDrop:
		return nil, f.s.drop()
	case FaultStallAck:
		// The previous chunks' ack is sent inside Next: sleeping first
		// lets the sender run to the end of its credit and park.
		f.s.sched.sleep()
	case FaultDuplicate:
		// Replay the last cumulative ack before pulling the next chunk:
		// the sender sees the same count twice and must not move.
		if err := dup.DuplicateAck(); err != nil {
			return nil, err
		}
	case FaultDelay:
		chunk, err := f.inner.Next()
		if err != nil {
			return nil, err
		}
		f.s.sched.sleep()
		return chunk, nil
	}
	return f.inner.Next()
}

// editFeed injects receive-side faults into one live subscription.
// Drops here are scoped to the feed — the subscription dies, the
// session survives — which models a per-stream failure and exercises
// the consumer's cheap recovery path (resubscribe on the surviving
// session) rather than always forcing a full redial.
type editFeed struct {
	s     *Session
	inner transport.EditFeed

	mu      sync.Mutex
	dead    bool
	pending *transport.EditFrame // duplicate to re-deliver on the next NextEdit
}

func (f *editFeed) Base() uint64      { return f.inner.Base() }
func (f *editFeed) SnapshotSize() int { return f.inner.SnapshotSize() }
func (f *editFeed) Resumed() bool     { return f.inner.Resumed() }
func (f *editFeed) Close() error      { return f.inner.Close() }

// alive fails every delivery after an injected feed drop.
func (f *editFeed) alive() error {
	if err := f.s.alive(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrInjected
	}
	return nil
}

// drop kills this one subscription; the session stays usable.
func (f *editFeed) drop() error {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
	f.inner.Close()
	return ErrInjected
}

func (f *editFeed) SendVerdict(ver uint64, ok bool) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.inner.SendVerdict(ver, ok)
}

func (f *editFeed) NextChunk() ([]byte, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	switch f.s.sched.draw(FaultDrop, FaultDelay, FaultTruncate, FaultStallAck) {
	case FaultDrop:
		return nil, f.drop()
	case FaultStallAck:
		f.s.sched.sleep()
	case FaultTruncate:
		chunk, err := f.inner.NextChunk()
		if err != nil {
			return nil, err
		}
		f.drop()
		return chunk[:len(chunk)/2], nil
	case FaultDelay:
		chunk, err := f.inner.NextChunk()
		if err != nil {
			return nil, err
		}
		f.s.sched.sleep()
		return chunk, nil
	}
	return f.inner.NextChunk()
}

func (f *editFeed) NextEdit(ctx context.Context) (transport.EditFrame, error) {
	if err := f.alive(); err != nil {
		return transport.EditFrame{}, err
	}
	f.mu.Lock()
	if dup := f.pending; dup != nil {
		f.pending = nil
		f.mu.Unlock()
		return *dup, nil // the injected redelivery
	}
	f.mu.Unlock()
	switch f.s.sched.draw(FaultDrop, FaultDelay, FaultDuplicate, FaultStallAck) {
	case FaultDrop:
		return transport.EditFrame{}, f.drop()
	case FaultDelay, FaultStallAck:
		f.s.sched.sleep()
	case FaultDuplicate:
		e, err := f.inner.NextEdit(ctx)
		if err != nil {
			return transport.EditFrame{}, err
		}
		cp := transport.EditFrame{Version: e.Version, Op: e.Op,
			Addr: append([]uint64(nil), e.Addr...), Doc: append([]byte(nil), e.Doc...)}
		f.mu.Lock()
		f.pending = &cp
		f.mu.Unlock()
		return e, nil
	}
	return f.inner.NextEdit(ctx)
}

// Listener wraps a net.Listener so a deterministic fraction of accepted
// connections read slowly and die after a byte budget — the `dxml serve
// -chaos seed` seam: a server that injects its own outages so clients'
// reconnect paths can be exercised against a real socket.
type Listener struct {
	net.Listener
	mu      sync.Mutex
	rng     *rand.Rand
	onFault func(error)
}

// NewListener wraps ln with seed-driven connection faults.
func NewListener(ln net.Listener, seed int64) *Listener {
	return &Listener{Listener: ln, rng: rand.New(rand.NewSource(seed))}
}

// SetOnFault installs a hook called once per doomed connection at the
// moment its byte budget trips (with the ErrInjected-wrapped fault) —
// the flight recorder's dump trigger for injected outages. The hook
// fires from connection goroutines and must be safe for concurrent
// use. Set it before serving; nil disables.
func (l *Listener) SetOnFault(fn func(error)) {
	l.mu.Lock()
	l.onFault = fn
	l.mu.Unlock()
}

// fault reports one tripped budget to the hook, if any.
func (l *Listener) fault(err error) {
	l.mu.Lock()
	fn := l.onFault
	l.mu.Unlock()
	if fn != nil {
		fn(err)
	}
}

// Accept hands out connections, roughly half of them doomed: a doomed
// connection delivers between 1KB and 32KB and then drops, with a
// small per-read delay. The sequence of dooms is a pure function of
// the listener's seed.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	doomed := l.rng.Intn(2) == 0
	budget := int64(1) << (10 + l.rng.Intn(6))
	delay := time.Duration(l.rng.Intn(2)) * time.Millisecond
	l.mu.Unlock()
	if !doomed {
		return c, nil
	}
	return &conn{Conn: c, ln: l, budget: budget, delay: delay}, nil
}

// conn is a doomed connection: it closes itself after its byte budget.
type conn struct {
	net.Conn
	ln     *Listener
	mu     sync.Mutex
	budget int64
	delay  time.Duration
	fired  bool
}

// spend burns n bytes of budget; false means the budget is gone and the
// connection has been closed.
func (c *conn) spend(n int) bool {
	c.mu.Lock()
	c.budget -= int64(n)
	dead := c.budget <= 0
	first := dead && !c.fired
	if first {
		c.fired = true
	}
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		if first {
			c.ln.fault(fmt.Errorf("chaos: %w", ErrInjected))
		}
	}
	return !dead
}

func (c *conn) Read(p []byte) (int, error) {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	n, err := c.Conn.Read(p)
	if n > 0 && !c.spend(n) && err == nil {
		return n, fmt.Errorf("chaos: %w", ErrInjected)
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && !c.spend(n) && err == nil {
		return n, fmt.Errorf("chaos: %w", ErrInjected)
	}
	return n, err
}
