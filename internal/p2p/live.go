package p2p

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dxml/internal/live"
	"dxml/internal/obs"
	"dxml/internal/stream"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// This file is the live session mode: the federation outliving a single
// validation round. Editing peers attach a live.Editor (AttachEditor)
// and publish subtree edits; the kernel peer opens a LiveFederation
// (OpenLive), which subscribes to every docking point's edit log over
// the session's transport, replays each edit onto a prefix-labeled
// replica, and maintains the global verdict by incremental
// revalidation (stream.Incremental) — re-checking only the edited
// subtree and the ancestor chain whose summaries actually change,
// instead of revalidating the extension from scratch. After each
// applied edit the kernel peer reports the fresh verdict back to the
// editing site (the wire's verdict-update frames), so both ends of the
// federation always agree on whether the distributed document is
// currently valid.

// AttachEditor wraps fn's current document in a live editor and makes
// the docking point subscribable. The editor becomes authoritative for
// the peer's document: the one-shot protocols ship the serialization of
// its current version, and live consumers use OpenLive's atomic
// snapshot-plus-log cut.
func (n *Network) AttachEditor(fn string) (*live.Editor, error) {
	peer, ok := n.Peers[fn]
	if !ok {
		return nil, fmt.Errorf("p2p: no peer for %s", fn)
	}
	if peer.Live == nil {
		peer.Live = live.NewEditor(peer.Doc)
	}
	return peer.Live, nil
}

// --- edit wire conversion ---

// editToFrame serializes an edit for the wire: the payload subtree
// travels as XML through the allocation-free emitter, the address as
// raw keys — O(‖edit‖ + depth) bytes total.
func editToFrame(e live.Edit) transport.EditFrame {
	f := transport.EditFrame{Version: e.Version, Op: uint8(e.Op), Addr: e.Addr}
	if e.Doc != nil {
		var b bytes.Buffer
		e.Doc.ToXML(&b) // cannot fail on a Buffer
		f.Doc = b.Bytes()
	}
	return f
}

// frameToEdit parses one received edit.
func frameToEdit(f transport.EditFrame) (live.Edit, error) {
	e := live.Edit{Version: f.Version, Op: live.Op(f.Op), Addr: append([]uint64(nil), f.Addr...)}
	if len(f.Doc) > 0 {
		doc, err := xmltree.FromXML(bytes.NewReader(f.Doc))
		if err != nil {
			return live.Edit{}, fmt.Errorf("p2p: edit payload: %w", err)
		}
		e.Doc = doc
	}
	return e, nil
}

// editorFeedSrc is the hosted side of one subscription: an atomic cut
// of the editor's state (the encoded snapshot is taken under the
// editor's lock) plus the blocking log behind it. It implements
// transport.LiveFeedSrc. A resumed feed has a nil snapshot: the
// subscriber kept its replica and only needs the log suffix.
type editorFeedSrc struct {
	ed      *live.Editor
	snap    []byte
	version uint64
}

func (s *editorFeedSrc) Version() uint64 { return s.version }

func (s *editorFeedSrc) Serialize(w io.Writer) error {
	_, err := w.Write(s.snap)
	return err
}

func (s *editorFeedSrc) NextEdit(ctx context.Context, after uint64) (transport.EditFrame, error) {
	e, err := s.ed.NextEdit(ctx, after)
	if err != nil {
		return transport.EditFrame{}, err
	}
	return editToFrame(e), nil
}

func (s *editorFeedSrc) NoteVerdict(version uint64, valid bool) {
	s.ed.NoteVerdict(version, valid)
}

func (s *editorFeedSrc) Close() {}

// OpenLive implements transport.LiveSource for hosted peers with an
// attached editor.
func (s *peerSource) OpenLive(ctx context.Context) (transport.LiveFeedSrc, error) {
	ed := s.peer.Live
	if ed == nil {
		return nil, fmt.Errorf("p2p: peer %s has no live editor", s.peer.Func)
	}
	snap, version := ed.EncodeSnapshot()
	return &editorFeedSrc{ed: ed, snap: snap, version: version}, nil
}

// OpenLiveSince completes transport.LiveSource: when the editor's
// log still reaches back to `after`, the subscriber resumes by suffix —
// no snapshot travels. When the log was compacted past it, the fallback
// is a fresh full cut, decided atomically under the editor's lock
// (live.Editor.CutSince), so no edit can slip between the decision and
// the cut.
func (s *peerSource) OpenLiveSince(ctx context.Context, after uint64) (transport.LiveFeedSrc, bool, error) {
	ed := s.peer.Live
	if ed == nil {
		return nil, false, fmt.Errorf("p2p: peer %s has no live editor", s.peer.Func)
	}
	snap, version, resumed := ed.CutSince(after)
	return &editorFeedSrc{ed: ed, snap: snap, version: version}, resumed, nil
}

// Health classifies a docking point's feed state in a LiveUpdate. The
// zero value is HealthLive, so ordinary per-edit updates are unchanged
// by the fault-tolerance layer.
type Health int

const (
	// HealthLive: the feed is healthy; this update reports an applied
	// edit.
	HealthLive Health = iota
	// HealthStale: the feed died and reconnection is under way. The
	// maintained verdict still reflects the last applied edit — it may
	// be behind the editing site — and no edits flow until recovery.
	HealthStale
	// HealthRecovered: the feed resubscribed (Resumed tells whether by
	// log suffix or snapshot fallback); edits flow again and the
	// verdict is current as of Version.
	HealthRecovered
	// HealthDown: recovery failed terminally (attempts exhausted, or
	// reconnection disabled); Err carries the cause and no further
	// updates arrive from this docking point.
	HealthDown
)

func (h Health) String() string {
	switch h {
	case HealthLive:
		return "live"
	case HealthStale:
		return "stale"
	case HealthRecovered:
		return "recovered"
	case HealthDown:
		return "down"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// LiveUpdate reports one applied edit, a feed health transition, or a
// terminal feed error to the kernel peer's consumer.
type LiveUpdate struct {
	// Fn is the docking point the edit came from; Version its log
	// version there; Op the operation applied.
	Fn      string
	Version uint64
	Op      string
	// Valid is the global verdict after applying the edit; Changed
	// reports a verdict transition.
	Valid   bool
	Changed bool
	// Revalidated and Skipped are the incremental revalidator's byte
	// split for this edit; WireBytes is what the edit cost on the wire.
	Revalidated int
	Skipped     int
	WireBytes   int
	// Health is the feed transition this update reports: HealthLive for
	// ordinary per-edit updates, HealthStale when the feed drops,
	// HealthRecovered after a successful resubscription, HealthDown
	// when recovery is abandoned.
	Health Health
	// Resumed is set on a HealthRecovered update when the feed caught
	// up by log suffix (no snapshot re-shipped); false means the
	// snapshot fallback rebuilt the replica.
	Resumed bool
	// Err, when non-nil, is a terminal error on this docking point's
	// feed (Health is HealthDown); no further updates arrive from it.
	Err error
}

// LiveFederation is the kernel peer's live session: replicas and the
// incremental result tree, advanced by the docking points' edit feeds.
type LiveFederation struct {
	n    *Network
	sess transport.LiveSession
	own  bool // session built for this live run: close it on Close

	ctx         context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	once        sync.Once
	updatesOnce sync.Once

	mu       sync.Mutex
	inc      *stream.Incremental
	replicas map[string]*live.Doc
	feeds    map[string]transport.EditFeed
	extra    map[string]transport.LiveSession // per-fn redialed sessions (reconnects), closed on Close
	stale    map[string]bool                  // docking points currently in outage
	valid    bool

	rngMu sync.Mutex
	rng   *rand.Rand // reconnect backoff jitter

	updates chan LiveUpdate
}

// OpenLive starts the live session: it subscribes to every docking
// point, pulls each fragment's keyed snapshot (chunked, with the same
// backpressure as any transfer), builds the extension's incremental
// result tree, and starts draining edits. The initial verdict is
// available immediately (Valid); per-edit updates flow on Updates until
// Close. Edits from different docking points are serialized through one
// lock, so the maintained verdict is always the verdict of a real
// interleaving of the feeds. With no Transport the session is a
// transport.Pipe to this network's own peers, owned by the live run.
func (n *Network) OpenLive(ctx context.Context) (*LiveFederation, error) {
	var ls transport.LiveSession
	if n.Transport == nil {
		c, err := n.pipeSession()
		if err != nil {
			return nil, err
		}
		ls = c
	} else {
		var ok bool
		if ls, ok = n.Transport.(transport.LiveSession); !ok {
			return nil, fmt.Errorf("p2p: transport %T does not support live sessions", n.Transport)
		}
	}
	lctx, cancel := context.WithCancel(ctx)
	seed := n.Reconnect.Seed
	if seed == 0 {
		seed = 1
	}
	lv := &LiveFederation{
		n: n, sess: ls, own: n.Transport == nil,
		ctx: lctx, cancel: cancel,
		replicas: map[string]*live.Doc{},
		feeds:    map[string]transport.EditFeed{},
		extra:    map[string]transport.LiveSession{},
		stale:    map[string]bool{},
		rng:      rand.New(rand.NewSource(seed)),
		updates:  make(chan LiveUpdate, 16),
	}
	fail := func(err error) (*LiveFederation, error) {
		for _, f := range lv.feeds {
			f.Close()
		}
		cancel()
		if lv.own {
			ls.Close()
		}
		return nil, err
	}
	frags := map[string]*xmltree.Tree{}
	for _, fn := range n.Kernel.Funcs() {
		feed, err := ls.Subscribe(lctx, fn)
		if err != nil {
			return fail(fmt.Errorf("p2p: subscribe %s: %w", fn, err))
		}
		lv.feeds[fn] = feed
		n.Stats.addMessage(transport.EnvelopeCost(fn)) // subscription envelope
		var buf bytes.Buffer
		for {
			chunk, cerr := feed.NextChunk()
			if cerr == io.EOF {
				break
			}
			if cerr != nil {
				return fail(fmt.Errorf("p2p: snapshot %s: %w", fn, cerr))
			}
			n.Stats.addFrame(len(chunk))
			buf.Write(chunk)
		}
		doc, err := live.DecodeSnapshot(&buf)
		if err != nil {
			return fail(fmt.Errorf("p2p: snapshot %s: %w", fn, err))
		}
		if doc.Version() != feed.Base() {
			return fail(fmt.Errorf("p2p: snapshot %s: version %d does not match announced cut %d",
				fn, doc.Version(), feed.Base()))
		}
		lv.replicas[fn] = doc
		frags[fn] = doc.Tree()
	}
	inc, err := n.GlobalMachine().NewKernelIncremental(n.Kernel, frags)
	if err != nil {
		return fail(err)
	}
	lv.inc = inc
	lv.valid = inc.Valid()
	for fn := range lv.feeds {
		lv.wg.Add(1)
		go lv.drain(fn)
	}
	// When every feed has terminated (all hosts gone, or each hit a
	// terminal error) no more updates can arrive: close the channel so
	// consumers ranging over Updates return instead of hanging. Every
	// emit completes before its drain's wg slot releases, so the close
	// cannot race a send; Close's own close goes through the same Once.
	go func() {
		lv.wg.Wait()
		lv.updatesOnce.Do(func() { close(lv.updates) })
	}()
	return lv, nil
}

// Valid returns the current global verdict.
func (lv *LiveFederation) Valid() bool {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.valid
}

// Stale lists the docking points currently in outage: their feeds died
// and reconnection is still under way, so the maintained verdict may
// lag their editing sites. Empty means the verdict is fully live.
func (lv *LiveFederation) Stale() []string {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	var out []string
	for fn, s := range lv.stale {
		if s {
			out = append(out, fn)
		}
	}
	sort.Strings(out)
	return out
}

func (lv *LiveFederation) setStale(fn string, stale bool) {
	lv.mu.Lock()
	lv.stale[fn] = stale
	lv.mu.Unlock()
}

// Fragment materializes the kernel peer's current replica of fn.
func (lv *LiveFederation) Fragment(fn string) (*xmltree.Tree, error) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	d, ok := lv.replicas[fn]
	if !ok {
		return nil, fmt.Errorf("p2p: no docking point %s", fn)
	}
	return d.Tree(), nil
}

// Extension materializes the current extension document.
func (lv *LiveFederation) Extension() *xmltree.Tree {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.inc.Tree()
}

// Updates is the per-edit stream. It is closed by Close.
func (lv *LiveFederation) Updates() <-chan LiveUpdate { return lv.updates }

// drain applies one docking point's edits for the session's lifetime,
// recovering from feed failures when a Reconnect policy is set: the
// verdict is marked stale, the subscription is reopened from the
// replica's version with backoff, and the log suffix (or, after
// compaction, a fresh snapshot) brings the replica back in sync.
func (lv *LiveFederation) drain(fn string) {
	defer lv.wg.Done()
	lv.mu.Lock()
	feed := lv.feeds[fn]
	replica := lv.replicas[fn]
	lv.mu.Unlock()
	for {
		ef, err := feed.NextEdit(lv.ctx)
		if err != nil {
			if lv.ctx.Err() != nil {
				return // session closing: not an outage
			}
			nf, doc, rerr := lv.recover(fn, replica, err)
			if rerr != nil {
				if lv.ctx.Err() == nil {
					lv.n.Obs.Add(obs.CHealthDown, 1)
					lv.emit(LiveUpdate{Fn: fn, Version: replica.Version(), Health: HealthDown, Err: rerr})
				}
				return
			}
			feed.Close() // best effort; the transport under it is gone
			feed, replica = nf, doc
			lv.mu.Lock()
			lv.feeds[fn] = nf
			lv.mu.Unlock()
			continue
		}
		if ef.Version <= replica.Version() {
			// Duplicate delivery: resumption (and fault injection) makes
			// the edit stream at-least-once, and versions make redelivery
			// harmless — skip without re-applying or re-counting, so a
			// faulted run's accounting converges to the fault-free run's.
			continue
		}
		up, err := lv.apply(fn, replica, ef)
		if err != nil {
			// A malformed or inapplicable edit means the replica can no
			// longer track this peer: surface it and stop the feed.
			lv.n.Obs.Add(obs.CHealthDown, 1)
			lv.emit(LiveUpdate{Fn: fn, Version: ef.Version, Health: HealthDown, Err: err})
			return
		}
		if serr := feed.SendVerdict(up.Version, up.Valid); serr == nil {
			lv.n.Stats.addMessage(transport.VerdictUpdateCost)
		}
		lv.emit(up)
	}
}

// recover reopens fn's subscription after a feed failure. It returns
// the new feed and the (possibly rebuilt) replica, or the terminal
// error once the policy's attempts are exhausted. Recovery traffic is
// not added to the protocol byte counters — see Stats.Reconnects.
func (lv *LiveFederation) recover(fn string, replica *live.Doc, cause error) (transport.EditFeed, *live.Doc, error) {
	pol := lv.n.Reconnect
	if pol.MaxAttempts <= 0 {
		return nil, nil, cause // reconnection disabled: the failure is terminal
	}
	lv.setStale(fn, true)
	lv.n.Obs.Add(obs.CHealthDown, 1)
	lv.emit(LiveUpdate{Fn: fn, Version: replica.Version(), Valid: lv.Valid(), Health: HealthStale})
	lastErr := cause
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		lv.rngMu.Lock()
		d := pol.delay(attempt, lv.rng)
		lv.rngMu.Unlock()
		lv.n.Obs.Observe(obs.HReconnectBackoffNs, int64(d))
		if !lv.sleep(d) {
			return nil, nil, lv.ctx.Err()
		}
		feed, err := lv.resubscribe(fn, replica.Version())
		if err != nil {
			lastErr = err
			continue
		}
		// Drain the snapshot phase: empty for a suffix resume, the
		// fallback cut otherwise.
		if feed.Resumed() {
			if err := drainChunks(feed, nil); err != nil {
				feed.Close()
				lastErr = err
				continue
			}
			lv.n.Stats.addReconnect()
			lv.n.Obs.Add(obs.CReconnects, 1)
			lv.n.Obs.Add(obs.CHealthUp, 1)
			lv.setStale(fn, false)
			lv.emit(LiveUpdate{Fn: fn, Version: replica.Version(), Valid: lv.Valid(), Health: HealthRecovered, Resumed: true})
			return feed, replica, nil
		}
		doc, err := lv.rebuild(fn, feed)
		if err != nil {
			feed.Close()
			lastErr = err
			continue
		}
		lv.n.Stats.addReconnect()
		lv.n.Obs.Add(obs.CReconnects, 1)
		lv.n.Obs.Add(obs.CHealthUp, 1)
		lv.setStale(fn, false)
		lv.emit(LiveUpdate{Fn: fn, Version: doc.Version(), Valid: lv.Valid(), Health: HealthRecovered})
		return feed, doc, nil
	}
	return nil, nil, fmt.Errorf("p2p: %s: reconnect failed after %d attempts: %w", fn, pol.MaxAttempts, lastErr)
}

// sleep waits d or until the session closes; false means closed.
func (lv *LiveFederation) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-lv.ctx.Done():
		return false
	}
}

// resubscribe reopens fn's feed from `after`: first on the session
// already serving fn (free when the fault was per-feed and the session
// survived), then — if the network can redial — on a fresh session,
// which replaces fn's session for the rest of the run.
func (lv *LiveFederation) resubscribe(fn string, after uint64) (transport.EditFeed, error) {
	feed, err := lv.sessionFor(fn).Resubscribe(lv.ctx, fn, after)
	if err == nil || lv.n.Redial == nil {
		return feed, err
	}
	ns, err := lv.n.Redial()
	if err != nil {
		return nil, err
	}
	feed, err = ns.Resubscribe(lv.ctx, fn, after)
	if err != nil {
		ns.Close()
		return nil, err
	}
	lv.mu.Lock()
	if old := lv.extra[fn]; old != nil {
		old.Close()
	}
	lv.extra[fn] = ns
	lv.mu.Unlock()
	return feed, nil
}

func (lv *LiveFederation) sessionFor(fn string) transport.LiveSession {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if s := lv.extra[fn]; s != nil {
		return s
	}
	return lv.sess
}

// drainChunks consumes a feed's snapshot phase to EOF, appending to buf
// when non-nil.
func drainChunks(feed transport.EditFeed, buf *bytes.Buffer) error {
	for {
		chunk, err := feed.NextChunk()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if buf != nil {
			buf.Write(chunk)
		}
	}
}

// rebuild replaces fn's replica from a fresh snapshot cut — the
// fallback when the editing site compacted its log past the replica's
// version. The incremental result tree absorbs it as a fragment-root
// replace, so the maintained verdict is exact immediately.
func (lv *LiveFederation) rebuild(fn string, feed transport.EditFeed) (*live.Doc, error) {
	var buf bytes.Buffer
	if err := drainChunks(feed, &buf); err != nil {
		return nil, err
	}
	doc, err := live.DecodeSnapshot(&buf)
	if err != nil {
		return nil, fmt.Errorf("p2p: snapshot %s: %w", fn, err)
	}
	if doc.Version() != feed.Base() {
		return nil, fmt.Errorf("p2p: snapshot %s: version %d does not match announced cut %d",
			fn, doc.Version(), feed.Base())
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if err := lv.inc.Replace(fn, nil, doc.Tree()); err != nil {
		return nil, err
	}
	lv.replicas[fn] = doc
	lv.valid = lv.inc.Valid()
	return doc, nil
}

// apply replays one edit onto the replica and the result tree.
func (lv *LiveFederation) apply(fn string, replica *live.Doc, ef transport.EditFrame) (LiveUpdate, error) {
	ed, err := frameToEdit(ef)
	if err != nil {
		return LiveUpdate{}, err
	}
	start := lv.n.Obs.Nanos()
	lv.mu.Lock()
	defer lv.mu.Unlock()
	ap, err := replica.Apply(ed)
	if err != nil {
		return LiveUpdate{}, err
	}
	switch ap.Op {
	case live.OpReplace:
		err = lv.inc.Replace(fn, ap.Path, ed.Doc)
	case live.OpInsert:
		err = lv.inc.Insert(fn, ap.Path, ed.Doc)
	case live.OpDelete:
		err = lv.inc.Delete(fn, ap.Path)
	}
	if err != nil {
		return LiveUpdate{}, err
	}
	valid := lv.inc.Valid()
	reval, skipped := lv.inc.LastRecheck()
	up := LiveUpdate{
		Fn: fn, Version: ed.Version, Op: ed.Op.String(),
		Valid: valid, Changed: valid != lv.valid,
		Revalidated: reval, Skipped: skipped, WireBytes: ef.WireSize(),
	}
	lv.valid = valid
	lv.n.Stats.addMessage(ef.WireSize())
	lv.n.Stats.addRecheck(reval, skipped)
	lv.n.Obs.Observe(obs.HEditApplyNs, lv.n.Obs.Nanos()-start)
	lv.n.Obs.Add(obs.CEditsApplied, 1)
	lv.n.Obs.Add(obs.CNodesRevalidated, int64(reval))
	lv.n.Obs.Add(obs.CNodesSkipped, int64(skipped))
	return up, nil
}

// emit delivers an update unless the session is closing.
func (lv *LiveFederation) emit(up LiveUpdate) {
	select {
	case lv.updates <- up:
	case <-lv.ctx.Done():
	}
}

// Close ends the live session: feeds unsubscribe, drains stop, and the
// updates channel closes. The session itself is closed only if it was
// opened for this live run (an externally dialed Network.Transport
// stays open for the caller).
func (lv *LiveFederation) Close() error {
	lv.once.Do(func() {
		lv.cancel()
		lv.wg.Wait() // drains exit via the canceled context
		for _, f := range lv.feeds {
			f.Close()
		}
		for _, s := range lv.extra {
			s.Close() // sessions opened by reconnects
		}
		lv.updatesOnce.Do(func() { close(lv.updates) })
		if lv.own {
			lv.sess.Close()
		}
	})
	return nil
}
