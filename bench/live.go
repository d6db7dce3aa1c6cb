package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dxml"
)

// live-edits: a live federation over TCP. Three editing peers hold
// bureau fragments of 10^4, 10^3 and 10^2 entries; the kernel peer's
// OpenLive session (set up, snapshot shipped, during set-up) maintains
// the global verdict by incremental revalidation. Each op publishes one
// edit, or a block of them, on one peer and completes when the kernel
// peer's update for its last edit arrives. The mix is 70% single-entry
// replace, 12% insert, 12% delete, 5% 100-entry block replace and 1% an
// invalidating replace that the next edit on that peer repairs.

const (
	liveKernel = "eurostat(averages(Good index(value year)) f1 f2 f3)"
	liveBlock  = 100
	// liveCompactEvery is how many ops pass between compactions of the
	// editors' logs, as a long-running editing site compacts what the
	// kernel peer has acknowledged.
	liveCompactEvery = 1024
	// liveRate is the open-loop arrival rate, a third of the closed-loop
	// capacity on the 2-core machine the bounds were set on, so a spell at
	// half speed of that shared machine still leaves headroom
	// (bench/README.md).
	liveRate = 1000
)

var liveEntries = []int{10000, 1000, 100}

type liveInputs struct {
	seed  int64
	frags [][]*dxml.Tree // peer -> fragment content
}

func prepareLive(p params) (inputs, error) {
	r := rand.New(rand.NewSource(p.seed))
	in := &liveInputs{seed: p.seed}
	for _, n := range liveEntries {
		in.frags = append(in.frags, entries(r, scaled(n, p.scale)))
	}
	return in, nil
}

// liveOp is one in-flight op: the edits it still awaits.
type liveOp struct {
	c         *opCtx
	remaining int
	invalid   bool // its edit must leave the federation invalid
}

type editKey struct {
	peer    int
	version uint64
}

type liveSystem struct {
	tr      *tracer
	global  *dxml.EDTD
	fns     []string
	editors []*dxml.LiveEditor
	host    *dxml.PeerHost
	sess    dxml.TransportSession
	joined  *dxml.Network
	lv      *dxml.LiveFederation
	done    chan struct{}

	// Generator state: only op touches it (one generator).
	rng     *rand.Rand
	mix     *deck    // op kinds
	peers   *deck    // which peer an op edits
	version []uint64 // last published version per peer
	size    []int    // entries per peer
	bad     []int    // per peer: index of an unrepaired invalid entry, or -1
	entryA  *dxml.Tree
	entryB  *dxml.Tree
	broken  *dxml.Tree
	planted bool

	mu      sync.Mutex
	pending map[editKey]*liveOp
	open    int // ops awaiting updates

	edits, reval, skipped, wire atomic.Int64
	marked                      [4]int64
	traffic                     dxml.Totals
	problem                     atomic.Value // first feed failure (string)
}

func (in *liveInputs) setup(tr *tracer) (system, error) {
	d, err := parseDesign(liveKernel, false)
	if err != nil {
		return nil, err
	}
	served, err := d.network(in.frags)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(in.seed))
	s := &liveSystem{tr: tr, global: d.global, fns: d.kernel.Funcs(), done: make(chan struct{}),
		rng: rng, mix: newDeck(rng, liveMix), pending: map[editKey]*liveOp{},
		entryA: entry(true), entryB: entry(false), broken: badEntry()}
	for i, fn := range s.fns {
		ed, err := served.AttachEditor(fn)
		if err != nil {
			return nil, err
		}
		s.editors = append(s.editors, ed)
		s.version = append(s.version, 0)
		s.size = append(s.size, len(in.frags[i]))
		s.bad = append(s.bad, -1)
	}
	one := make([]int, len(s.editors))
	for i := range one {
		one[i] = 1
	}
	s.peers = newDeck(rng, one)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.host = served.ServeTCP(ln)
	s.joined = dxml.NewNetwork(d.kernel, d.global)
	s.sess, err = s.joined.DialTCP(addrsFor(d.kernel, s.host.Addr().String()))
	if err != nil {
		s.host.Close()
		return nil, err
	}
	s.joined.Transport = s.sess
	s.lv, err = s.joined.OpenLive(context.Background())
	if err != nil {
		s.sess.Close()
		s.host.Close()
		return nil, err
	}
	go s.consume()
	return s, nil
}

// crossCheck validates the initial extension with the tree validator.
func (s *liveSystem) crossCheck() error {
	if err := s.global.Validate(s.lv.Extension()); err != nil {
		return fmt.Errorf("initial extension: %w", err)
	}
	if !s.lv.Valid() {
		return fmt.Errorf("initial live verdict is invalid")
	}
	return nil
}

func (s *liveSystem) plant() { s.planted = true }

// consume matches the kernel peer's updates to the ops awaiting them.
func (s *liveSystem) consume() {
	defer close(s.done)
	peer := map[string]int{}
	for i, fn := range s.fns {
		peer[fn] = i
	}
	for up := range s.lv.Updates() {
		if up.Err != nil || up.Health != dxml.HealthLive {
			s.problem.CompareAndSwap(nil, fmt.Sprintf("feed %s: health %v: %v", up.Fn, up.Health, up.Err))
			continue
		}
		s.edits.Add(1)
		s.reval.Add(int64(up.Revalidated))
		s.skipped.Add(int64(up.Skipped))
		s.wire.Add(int64(up.WireBytes))
		key := editKey{peer[up.Fn], up.Version}
		s.mu.Lock()
		op := s.pending[key]
		delete(s.pending, key)
		var finished bool
		if op != nil {
			op.remaining--
			finished = op.remaining == 0
		}
		s.mu.Unlock()
		if !finished {
			continue
		}
		var err error
		if op.invalid && up.Valid {
			err = wrongf("%s v%d: invalidating edit left the federation valid", up.Fn, up.Version)
		}
		op.c.ph.complete(op.c, err)
		// Only now may drain see the op as done: its outcome is recorded.
		s.mu.Lock()
		s.open--
		s.mu.Unlock()
	}
}

// edit is one planned editor call on a fragment's top-level entries.
type edit struct {
	kind    editKind
	at      int
	payload *dxml.Tree
}

type editKind int

const (
	replace editKind = iota
	insert
	remove
)

// The op mix, dealt from a deck of 100 so every 100 ops hold exactly
// this mix whatever the seed.
const (
	mixReplace = iota
	mixInsert
	mixDelete
	mixBlock
	mixInvalid
)

var liveMix = []int{mixReplace: 70, mixInsert: 12, mixDelete: 12, mixBlock: 5, mixInvalid: 1}

// deck deals counts[card] copies of each card in seeded order,
// reshuffled each round.
type deck struct {
	cards []int
	next  int
	r     *rand.Rand
}

func newDeck(r *rand.Rand, counts []int) *deck {
	d := &deck{r: r}
	for card, n := range counts {
		for k := 0; k < n; k++ {
			d.cards = append(d.cards, card)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// plan draws the next op: its peer and its edits.
func (s *liveSystem) plan() (peer int, edits []edit, invalid bool) {
	peer = s.peers.deal()
	fresh := func() *dxml.Tree {
		if s.rng.Intn(2) == 0 {
			return s.entryA
		}
		return s.entryB
	}
	size := s.size[peer]
	if at := s.bad[peer]; at >= 0 {
		s.bad[peer] = -1
		return peer, []edit{{replace, at, fresh()}}, false
	}
	switch s.mix.deal() {
	case mixReplace:
		return peer, []edit{{replace, s.rng.Intn(size), fresh()}}, false
	case mixDelete:
		if size > 1 {
			s.size[peer]--
			return peer, []edit{{remove, s.rng.Intn(size), nil}}, false
		}
		fallthrough
	case mixInsert:
		s.size[peer]++
		return peer, []edit{{insert, s.rng.Intn(size + 1), fresh()}}, false
	case mixBlock:
		n := min(liveBlock, size)
		from := s.rng.Intn(size - n + 1)
		for k := 0; k < n; k++ {
			edits = append(edits, edit{replace, from + k, fresh()})
		}
		return peer, edits, false
	}
	for _, at := range s.bad {
		if at >= 0 { // one invalid peer at a time
			return peer, []edit{{replace, s.rng.Intn(size), fresh()}}, false
		}
	}
	at := s.rng.Intn(size)
	s.bad[peer] = at
	return peer, []edit{{replace, at, s.broken}}, true
}

func (s *liveSystem) op(c *opCtx) error {
	if c.i%liveCompactEvery == liveCompactEvery-1 {
		for _, ed := range s.editors {
			if v, _, ok := ed.KernelVerdict(); ok {
				ed.Compact(v)
			}
		}
	}
	peer, edits, invalid := s.plan()
	op := &liveOp{c: c, remaining: len(edits), invalid: invalid}
	s.mu.Lock()
	for range edits {
		s.version[peer]++
		s.pending[editKey{peer, s.version[peer]}] = op
	}
	s.open++
	s.mu.Unlock()
	ed := s.editors[peer]
	for _, e := range edits {
		start := s.tr.now()
		var err error
		switch e.kind {
		case replace:
			_, err = ed.ReplaceSubtree([]int{e.at}, e.payload)
		case insert:
			_, err = ed.InsertChild(nil, e.at, e.payload)
		case remove:
			_, err = ed.DeleteSubtree([]int{e.at})
		}
		s.tr.span("live.publish", int64(c.i), c.span, start)
		if err != nil {
			s.mu.Lock()
			op.remaining = -1 // abandoned: its published edits must not complete it
			s.open--
			s.mu.Unlock()
			return fmt.Errorf("%s: publishing: %w", s.fns[peer], err)
		}
	}
	return nil
}

// drain waits for the updates of every op still open, then fails the
// ones the deadline cut off.
func (s *liveSystem) drain(ph *phase, deadline time.Time) {
	for time.Now().Before(deadline) {
		s.mu.Lock()
		open := s.open
		s.mu.Unlock()
		if open == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	cut := map[*liveOp]bool{}
	for key, op := range s.pending {
		if op.remaining > 0 {
			cut[op] = true
		}
		delete(s.pending, key)
	}
	s.open = 0
	s.mu.Unlock()
	for op := range cut {
		op.c.ph.complete(op.c, fmt.Errorf("no update before the drain deadline"))
	}
}

func (s *liveSystem) mark() {
	s.marked = [4]int64{s.edits.Load(), s.reval.Load(), s.skipped.Load(), s.wire.Load()}
	s.traffic = s.joined.Stats.Totals()
}

func (s *liveSystem) layers(r *report, ph *phase, tr *tracer) error {
	ops := float64(len(ph.lat))
	edits := float64(s.edits.Load() - s.marked[0])
	reval := float64(s.reval.Load() - s.marked[1])
	skipped := float64(s.skipped.Load() - s.marked[2])
	wire := float64(s.wire.Load() - s.marked[3])
	t := s.joined.Stats.Totals()
	r.set("p2p.round_ms", ph.meanLatencyMs())
	r.set("p2p.wire_bytes_per_op", float64(t.Bytes-s.traffic.Bytes)/ops)
	r.set("p2p.frames_per_op", float64(t.Frames-s.traffic.Frames)/ops)
	if edits > 0 {
		r.set("live.revalidated_bytes_per_edit", reval/edits)
		r.set("live.skipped_ratio", skipped/(reval+skipped))
		r.set("live.wire_bytes_per_edit", wire/edits)
	}
	if tr != nil {
		r.set("live.publish_us", tr.mean("live.publish")/1e3)
	}
	return nil
}

// check is the end-of-run oracle: every kernel replica equals its
// editor's document, and the live verdict equals both a from-scratch
// validation of the extension and the verdict the edits were built to
// leave.
func (s *liveSystem) check() error {
	if p := s.problem.Load(); p != nil {
		return fmt.Errorf("%s", p)
	}
	for i, fn := range s.fns {
		got, err := s.lv.Fragment(fn)
		if err != nil {
			return err
		}
		if !got.Equal(s.editors[i].Tree()) {
			return fmt.Errorf("%s: kernel replica differs from the editor's document", fn)
		}
	}
	want := true
	for _, at := range s.bad {
		want = want && at < 0
	}
	if s.planted {
		want = !want
	}
	scratch := s.global.Validate(s.lv.Extension()) == nil
	if live := s.lv.Valid(); live != scratch || live != want {
		return fmt.Errorf("final verdict: live %v, from scratch %v, built to be %v", live, scratch, want)
	}
	return nil
}

func (s *liveSystem) close() {
	s.lv.Close()
	<-s.done
	s.sess.Close()
	s.host.Close()
}
