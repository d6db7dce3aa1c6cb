package strlang

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Symbol is an element of a finite alphabet. The empty string is reserved
// for ε and is never a valid symbol.
type Symbol = string

// nfaRow is a state's transition table: parallel slices sorted by interned
// symbol id. Rows cost memory proportional to the state's actual
// out-degree (global interner ids can be sparse within one automaton), and
// lookups are a binary search over a handful of int32s — no string
// hashing.
type nfaRow struct {
	syms []int32   // sorted distinct symbol ids
	ts   [][]int32 // parallel sorted target lists
}

// get returns the target list for sid, or nil.
func (r *nfaRow) get(sid int32) []int32 {
	if i, ok := slices.BinarySearch(r.syms, sid); ok {
		return r.ts[i]
	}
	return nil
}

// add inserts the edge (sid, to), reporting whether sid is new to this row.
func (r *nfaRow) add(sid, to int32) (newSym bool) {
	i, ok := slices.BinarySearch(r.syms, sid)
	if !ok {
		r.syms = slices.Insert(r.syms, i, sid)
		r.ts = slices.Insert(r.ts, i, []int32{to})
		return true
	}
	r.ts[i], _ = insertSorted(r.ts[i], to)
	return false
}

// rowArena hands out the backing arrays of rows built together, so that
// copying or rebuilding an automaton's n rows costs a few allocations
// instead of 2n. Every slice it hands out is capped at its length: a later
// add on the row reallocates instead of writing over a neighbour.
type rowArena struct {
	ints  []int32   // symbols and targets; len is what is handed out
	lists [][]int32 // target-list headers
}

// newRowArena returns an arena sized for rows holding about ints symbols
// and targets and lists symbols in all.
func newRowArena(ints, lists int) *rowArena {
	return &rowArena{ints: make([]int32, 0, ints), lists: make([][]int32, 0, lists)}
}

// rowSize returns the symbols and targets of a's rows, and its symbols.
func (a *NFA) rowSize() (ints, lists int) {
	for q := range a.trans {
		r := &a.trans[q]
		lists += len(r.syms)
		ints += len(r.syms)
		for _, ts := range r.ts {
			ints += len(ts)
		}
	}
	return ints, lists
}

// take returns n fresh int32s; when the current chunk is full, a new one
// at least as large is started and the old one stays with its rows.
func (ar *rowArena) take(n int) []int32 {
	if cap(ar.ints)-len(ar.ints) < n {
		ar.ints = make([]int32, 0, max(n, cap(ar.ints), 64))
	}
	lo := len(ar.ints)
	ar.ints = ar.ints[:lo+n]
	return ar.ints[lo : lo+n : lo+n]
}

// takeLists returns n fresh target-list headers.
func (ar *rowArena) takeLists(n int) [][]int32 {
	if cap(ar.lists)-len(ar.lists) < n {
		ar.lists = make([][]int32, 0, max(n, cap(ar.lists), 16))
	}
	lo := len(ar.lists)
	ar.lists = ar.lists[:lo+n]
	return ar.lists[lo : lo+n : lo+n]
}

// clone returns a deep copy of r with targets shifted by off.
func (ar *rowArena) clone(r *nfaRow, off int32) nfaRow {
	if len(r.syms) == 0 {
		return nfaRow{}
	}
	n := len(r.syms)
	for _, ts := range r.ts {
		n += len(ts)
	}
	back := ar.take(n)
	out := nfaRow{syms: back[:len(r.syms):len(r.syms)], ts: ar.takeLists(len(r.ts))}
	copy(out.syms, r.syms)
	at := len(r.syms)
	for i, ts := range r.ts {
		dst := back[at : at+len(ts) : at+len(ts)]
		for j, t := range ts {
			dst[j] = t + off
		}
		out.ts[i] = dst
		at += len(ts)
	}
	return out
}

// packEdge packs the edge (sid, to) so that packed edges sort by symbol,
// then target.
func packEdge(sid, to int32) uint64 { return uint64(sid)<<32 | uint64(uint32(to)) }

// build returns the row of the packed edges, which it sorts in place and
// deduplicates.
func (ar *rowArena) build(edges []uint64) nfaRow {
	if len(edges) == 0 {
		return nfaRow{}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	nsyms := 1
	for i := 1; i < len(edges); i++ {
		if edges[i]>>32 != edges[i-1]>>32 {
			nsyms++
		}
	}
	back := ar.take(nsyms + len(edges))
	r := nfaRow{syms: back[:0:nsyms], ts: ar.takeLists(nsyms)[:0]}
	tgt := back[nsyms:nsyms]
	lo := 0
	for i, e := range edges {
		sid := int32(e >> 32)
		if i == 0 || sid != r.syms[len(r.syms)-1] {
			if i > 0 {
				r.ts = append(r.ts, tgt[lo:len(tgt):len(tgt)])
			}
			r.syms = append(r.syms, sid)
			lo = len(tgt)
		}
		tgt = append(tgt, int32(uint32(e)))
	}
	r.ts = append(r.ts, tgt[lo:len(tgt):len(tgt)])
	return r
}

// NFA is a nondeterministic finite automaton with ε-transitions
// A = ⟨K, Σ, Δ, qs, F⟩ (Section 2.1.2 of the paper). States are the
// integers 0..NumStates()-1; the alphabet is implicit (the set of symbols
// appearing on transitions).
//
// Transitions are keyed by interned symbol ids (see Interner) in compact
// per-state rows; target lists are kept sorted and duplicate-free by
// binary-search insertion. The per-state ε-closures and the sorted
// alphabet are computed once and cached until the next mutation. The
// caches are published atomically, so an automaton no longer mutated
// may be read from several goroutines at once, first uses included.
type NFA struct {
	start int
	final IntSet
	// trans[q] holds the symbol successors of q.
	trans []nfaRow
	// eps[q] lists the ε-successors of q, sorted ascending.
	eps [][]int32

	// alpha caches the symbol ids present on transitions, sorted by
	// symbol name; nil means dirty.
	alpha atomic.Pointer[[]int32]
	// clos caches the per-state ε-closures; nil means dirty.
	clos atomic.Pointer[[]IntSet]
}

// NewNFA returns an automaton with a single non-final start state and no
// transitions; it recognizes the empty language.
func NewNFA() *NFA {
	a := &NFA{final: NewIntSet()}
	a.AddState()
	return a
}

// AddState adds a fresh state and returns its id.
func (a *NFA) AddState() int {
	a.trans = append(a.trans, nfaRow{})
	a.eps = append(a.eps, nil)
	if clos := a.clos.Load(); clos != nil {
		// A fresh state has no ε-edges: its closure is itself.
		grown := append(*clos, NewIntSet(len(a.trans)-1))
		a.clos.Store(&grown)
	}
	return len(a.trans) - 1
}

// NumStates returns the number of states of a.
func (a *NFA) NumStates() int { return len(a.trans) }

// Start returns the start state of a.
func (a *NFA) Start() int { return a.start }

// SetStart makes q the start state.
func (a *NFA) SetStart(q int) { a.start = q }

// MarkFinal makes q a final state.
func (a *NFA) MarkFinal(q int) { a.final.Add(q) }

// ClearFinal makes q non-final.
func (a *NFA) ClearFinal(q int) { a.final.Remove(q) }

// IsFinal reports whether q is final.
func (a *NFA) IsFinal(q int) bool { return a.final.Has(q) }

// Finals returns the set of final states (shared; do not mutate).
func (a *NFA) Finals() IntSet { return a.final }

// insertSorted inserts v into the sorted list if absent, reporting whether
// it was inserted. Constructions mostly add targets in increasing order,
// so the common case is an O(log n) search plus an append at the tail.
func insertSorted(list []int32, v int32) ([]int32, bool) {
	i, found := slices.BinarySearch(list, v)
	if found {
		return list, false
	}
	return slices.Insert(list, i, v), true
}

// AddTransition adds the transition (from, sym, to). sym must be non-empty;
// use AddEps for ε-transitions.
func (a *NFA) AddTransition(from int, sym Symbol, to int) {
	if sym == "" {
		panic("strlang: empty symbol in AddTransition; use AddEps")
	}
	a.AddTransitionID(from, Intern(sym), to)
}

// AddTransitionID adds the transition (from, sid, to) by interned symbol id.
func (a *NFA) AddTransitionID(from int, sid int32, to int) {
	if a.trans[from].add(sid, int32(to)) {
		invalidate(&a.alpha) // a symbol may have appeared for the first time
	}
}

// AddEps adds the ε-transition (from, ε, to).
func (a *NFA) AddEps(from, to int) {
	list, inserted := insertSorted(a.eps[from], int32(to))
	if inserted {
		invalidate(&a.clos)
	}
	a.eps[from] = list
}

// EpsSucc returns the ε-successors of q (shared slice; do not mutate).
func (a *NFA) EpsSucc(q int) []int32 { return a.eps[q] }

// Succ returns the sym-successors of q (shared slice; do not mutate).
func (a *NFA) Succ(q int, sym Symbol) []int32 {
	sid, ok := LookupSymID(sym)
	if !ok {
		return nil
	}
	return a.trans[q].get(sid)
}

// SuccID returns the successors of q by interned symbol id (shared slice;
// do not mutate).
func (a *NFA) SuccID(q int, sid int32) []int32 {
	return a.trans[q].get(sid)
}

// Edges returns the symbol transitions of q as parallel slices: the
// interned symbol ids, ascending, and each one's sorted targets (shared;
// do not mutate).
func (a *NFA) Edges(q int) ([]int32, [][]int32) {
	r := &a.trans[q]
	return r.syms, r.ts
}

// AlphabetIDs returns the interned ids of the symbols appearing on
// transitions, sorted by symbol name (shared slice; do not mutate).
func (a *NFA) AlphabetIDs() []int32 {
	if alpha := a.alpha.Load(); alpha != nil {
		return *alpha
	}
	alpha := collectAlphabet(func(yield func(int32)) {
		for q := range a.trans {
			for _, sid := range a.trans[q].syms {
				yield(sid)
			}
		}
	})
	a.alpha.Store(&alpha)
	return alpha
}

// collectAlphabet gathers distinct symbol ids from the given enumerator
// and sorts them by symbol name, so iteration orders (and therefore
// deterministic outputs like witnesses and renderings) match the old
// string-sorted behavior.
func collectAlphabet(enum func(yield func(int32))) []int32 {
	var seen Bits
	var ids []int32
	enum(func(sid int32) {
		if !seen.Has(int(sid)) {
			seen.Add(int(sid))
			ids = append(ids, sid)
		}
	})
	sort.Slice(ids, func(i, j int) bool {
		return SymbolName(ids[i]) < SymbolName(ids[j])
	})
	if ids == nil {
		ids = []int32{}
	}
	return ids
}

// Alphabet returns the sorted set of symbols that appear on transitions.
func (a *NFA) Alphabet() []Symbol {
	ids := a.AlphabetIDs()
	out := make([]Symbol, len(ids))
	for i, id := range ids {
		out[i] = SymbolName(id)
	}
	return out
}

// Clone returns a deep copy of a.
func (a *NFA) Clone() *NFA {
	b := &NFA{
		start: a.start,
		final: a.final.Copy(),
		trans: make([]nfaRow, len(a.trans)),
		eps:   make([][]int32, len(a.eps)),
	}
	b.alpha.Store(a.alpha.Load())
	if clos := a.clos.Load(); clos != nil {
		cloned := slices.Clone(*clos)
		b.clos.Store(&cloned)
	}
	ar := newRowArena(a.rowSize())
	for q := range a.trans {
		b.trans[q] = ar.clone(&a.trans[q], 0)
	}
	for q, ts := range a.eps {
		b.eps[q] = slices.Clone(ts)
	}
	return b
}

// Graft copies src's states, transitions and ε-edges into a, returning the
// state offset of the copy. Finality and start state of src are not
// copied. It is the fast path for the many glue constructions that stitch
// automata together (union, concatenation, Ω-gluing, relabelings).
func (a *NFA) Graft(src *NFA) int {
	off := len(a.trans)
	a.trans = slices.Grow(a.trans, len(src.trans))
	a.eps = slices.Grow(a.eps, len(src.eps))
	ar := newRowArena(src.rowSize())
	for q := range src.trans {
		a.trans = append(a.trans, ar.clone(&src.trans[q], int32(off)))
		var eps []int32
		if ts := src.eps[q]; len(ts) > 0 {
			eps = ar.take(len(ts))
			for i, t := range ts {
				eps[i] = t + int32(off)
			}
		}
		a.eps = append(a.eps, eps)
	}
	invalidate(&a.alpha)
	invalidate(&a.clos)
	return off
}

// invalidate drops a cache on mutation. Construction loops mutate edge
// by edge, so the store, an atomic exchange, is paid only when there is
// a cache to drop.
func invalidate[T any](cache *atomic.Pointer[T]) {
	if cache.Load() != nil {
		cache.Store(nil)
	}
}

// closures returns the per-state ε-closures, computed once; every Step
// and Closure afterwards is pure bitset unions.
func (a *NFA) closures() []IntSet {
	if clos := a.clos.Load(); clos != nil {
		return *clos
	}
	n := len(a.trans)
	clos := make([]IntSet, n)
	var stack []int32
	for q := 0; q < n; q++ {
		c := NewIntSet(q)
		if len(a.eps[q]) > 0 {
			stack = append(stack[:0], int32(q))
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, t := range a.eps[p] {
					if !c.Has(int(t)) {
						c.Add(int(t))
						stack = append(stack, t)
					}
				}
			}
		}
		clos[q] = c
	}
	a.clos.Store(&clos)
	return clos
}

// Closure returns the ε-closure of the given set of states.
func (a *NFA) Closure(states IntSet) IntSet {
	clos := a.closures()
	out := NewIntSet()
	for q := range states.All() {
		out.AddAll(clos[q])
	}
	return out
}

// ClosureOf returns the cached ε-closure of a single state (shared; do not
// mutate).
func (a *NFA) ClosureOf(q int) IntSet {
	return a.closures()[q]
}

// Step returns the ε-closed set reached from the ε-closed set cur by
// reading sym.
func (a *NFA) Step(cur IntSet, sym Symbol) IntSet {
	sid, ok := LookupSymID(sym)
	if !ok {
		return NewIntSet()
	}
	return a.StepID(cur, sid)
}

// StepID is Step by interned symbol id.
func (a *NFA) StepID(cur IntSet, sid int32) IntSet {
	next := NewIntSet()
	a.StepIDInto(next, cur, sid)
	return next
}

// StepIDInto unions into dst the ε-closed set reached from the ε-closed
// set cur by reading the symbol with interned id sid. dst is not cleared
// first, so callers can accumulate the steps of several symbols into one
// set; dst and cur must not alias. This is the allocation-free core of
// StepID: reusing dst across steps keeps the general-EDTD streaming slow
// path off the heap.
func (a *NFA) StepIDInto(dst, cur IntSet, sid int32) {
	clos := a.closures()
	for q := range cur.All() {
		for _, t := range a.trans[q].get(sid) {
			dst.AddAll(clos[t])
		}
	}
}

// Run returns the ε-closed set of states reachable from the start state by
// reading w.
func (a *NFA) Run(w []Symbol) IntSet {
	cur := a.Closure(NewIntSet(a.start))
	for _, s := range w {
		cur = a.Step(cur, s)
		if cur.Len() == 0 {
			return cur
		}
	}
	return cur
}

// Accepts reports whether a accepts w.
func (a *NFA) Accepts(w []Symbol) bool {
	return a.Run(w).Intersects(a.final)
}

// AcceptsEps reports whether a accepts the empty string.
func (a *NFA) AcceptsEps() bool { return a.Accepts(nil) }

// reachableFrom returns the states reachable from the given seeds
// (following both symbol and ε edges, reflexively).
func (a *NFA) reachableFrom(seeds ...int) IntSet {
	seen := NewIntSet(seeds...)
	stack := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		stack = append(stack, int32(s))
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit := func(t int32) {
			if !seen.Has(int(t)) {
				seen.Add(int(t))
				stack = append(stack, t)
			}
		}
		for _, t := range a.eps[q] {
			visit(t)
		}
		for _, ts := range a.trans[q].ts {
			for _, t := range ts {
				visit(t)
			}
		}
	}
	return seen
}

// Reach returns the set of states reachable from q (reflexively), following
// both symbol and ε edges.
func (a *NFA) Reach(q int) IntSet { return a.reachableFrom(q) }

// Reverse returns the automaton with all edges reversed. The start/final
// designations of the result are not meaningful; it is a helper for
// co-reachability computations. Each reversed row is built in bulk from
// the incoming edges of its state.
func (a *NFA) Reverse() *NFA {
	n := len(a.trans)
	b := &NFA{final: NewIntSet(), trans: make([]nfaRow, n), eps: make([][]int32, n)}
	// Bucket every edge by its target (counting sort), then build each
	// target's row from its bucket.
	head := make([]int32, n+1)
	for q := range a.trans {
		for _, ts := range a.trans[q].ts {
			for _, t := range ts {
				head[t+1]++
			}
		}
	}
	for q := 0; q < n; q++ {
		head[q+1] += head[q]
	}
	edges := make([]uint64, head[n])
	fill := slices.Clone(head[:n])
	for q := range a.trans {
		row := &a.trans[q]
		for i, sid := range row.syms {
			for _, t := range row.ts[i] {
				edges[fill[t]] = packEdge(sid, int32(q))
				fill[t]++
			}
		}
	}
	ints, lists := a.rowSize()
	ar := newRowArena(ints, lists)
	for t := 0; t < n; t++ {
		b.trans[t] = ar.build(edges[head[t]:head[t+1]])
	}
	for q, ts := range a.eps {
		for _, t := range ts {
			b.eps[t] = append(b.eps[t], int32(q))
		}
	}
	return b
}

// coReachable returns the states from which some state in targets is
// reachable (reflexively), by a backward walk over a predecessor index of
// the symbol and ε edges.
func (a *NFA) coReachable(targets IntSet) IntSet {
	n := len(a.trans)
	head := make([]int32, n+1)
	for q := range a.trans {
		for _, ts := range a.trans[q].ts {
			for _, t := range ts {
				head[t+1]++
			}
		}
		for _, t := range a.eps[q] {
			head[t+1]++
		}
	}
	for q := 0; q < n; q++ {
		head[q+1] += head[q]
	}
	pred := make([]int32, head[n])
	fill := slices.Clone(head[:n])
	for q := range a.trans {
		for _, ts := range a.trans[q].ts {
			for _, t := range ts {
				pred[fill[t]] = int32(q)
				fill[t]++
			}
		}
		for _, t := range a.eps[q] {
			pred[fill[t]] = int32(q)
			fill[t]++
		}
	}
	seen := targets.Copy()
	stack := fill[:0] // reuse: fill is no longer needed
	for q := range targets.All() {
		stack = append(stack, int32(q))
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range pred[head[t]:head[t+1]] {
			if !seen.Has(int(q)) {
				seen.Add(int(q))
				stack = append(stack, q)
			}
		}
	}
	return seen
}

// Trim returns an equivalent automaton containing only useful states
// (reachable from the start and co-reachable to a final state). The start
// state is always kept, so the result of trimming an empty-language
// automaton is a single-state automaton with no finals. The second result
// maps old state ids to new ones (-1 for dropped states). Kept states keep
// their relative order, so every row is copied in bulk, already sorted.
func (a *NFA) Trim() (*NFA, []int) {
	fwd := a.reachableFrom(a.start)
	bwd := a.coReachable(a.final)
	keep := fwd.Intersect(bwd)
	// An unuseful start state means an empty language: the start state is
	// kept, but none of its edges.
	empty := !keep.Has(a.start)
	keep.Add(a.start)
	old2new := make([]int, a.NumStates())
	for i := range old2new {
		old2new[i] = -1
	}
	n := 0
	for q := range keep.All() {
		old2new[q] = n
		n++
	}
	b := &NFA{start: old2new[a.start], final: NewIntSet(), trans: make([]nfaRow, n), eps: make([][]int32, n)}
	ar := newRowArena(a.rowSize())
	var scratch []uint64
	for q := range keep.All() {
		nq := old2new[q]
		if a.final.Has(q) {
			b.final.Add(nq)
		}
		if empty {
			continue
		}
		row := &a.trans[q]
		scratch = scratch[:0]
		for i, sid := range row.syms {
			for _, t := range row.ts[i] {
				if nt := old2new[t]; nt >= 0 {
					scratch = append(scratch, packEdge(sid, int32(nt)))
				}
			}
		}
		b.trans[nq] = ar.build(scratch)
		var eps []int32
		for _, t := range a.eps[q] {
			if nt := old2new[t]; nt >= 0 {
				eps = append(eps, int32(nt))
			}
		}
		b.eps[nq] = eps
	}
	return b, old2new
}

// WithoutEps returns an equivalent automaton with no ε-transitions and the
// same state ids: each state gains the symbol transitions of its ε-closure,
// and is final if its ε-closure meets a final state. A state with no
// ε-edge keeps a copy of its row; any other row is collected from the
// closure's rows and sorted once. It only reads a: closures are walked in
// a scratch set, not cached on a.
func (a *NFA) WithoutEps() *NFA {
	n := len(a.trans)
	b := &NFA{start: a.start, final: NewIntSet(), trans: make([]nfaRow, n), eps: make([][]int32, n)}
	ar := newRowArena(a.rowSize())
	var scratch []uint64
	var stack []int32
	cl := NewIntSet()
	for q := range a.trans {
		if len(a.eps[q]) == 0 {
			if a.final.Has(q) {
				b.final.Add(q)
			}
			b.trans[q] = ar.clone(&a.trans[q], 0)
			continue
		}
		cl.Clear()
		cl.Add(q)
		stack = append(stack[:0], int32(q))
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range a.eps[p] {
				if !cl.Has(int(t)) {
					cl.Add(int(t))
					stack = append(stack, t)
				}
			}
		}
		if cl.Intersects(a.final) {
			b.final.Add(q)
		}
		scratch = scratch[:0]
		for p := range cl.All() {
			row := &a.trans[p]
			for i, sid := range row.syms {
				for _, t := range row.ts[i] {
					scratch = append(scratch, packEdge(sid, t))
				}
			}
		}
		b.trans[q] = ar.build(scratch)
	}
	return b
}

// MapSymbols returns a copy of a with every symbol renamed by f, which
// is called once per distinct symbol. Renaming may merge symbols; each row
// is built in bulk, sorted and deduplicated once.
func (a *NFA) MapSymbols(f func(Symbol) Symbol) *NFA {
	n := len(a.trans)
	b := &NFA{start: a.start, final: a.final.Copy(), trans: make([]nfaRow, n), eps: make([][]int32, n)}
	renamed := map[int32]int32{}
	ar := newRowArena(a.rowSize())
	var scratch []uint64
	for q := range a.trans {
		row := &a.trans[q]
		scratch = scratch[:0]
		for i, sid := range row.syms {
			to, ok := renamed[sid]
			if !ok {
				to = Intern(f(SymbolName(sid)))
				renamed[sid] = to
			}
			for _, t := range row.ts[i] {
				scratch = append(scratch, packEdge(to, t))
			}
		}
		b.trans[q] = ar.build(scratch)
		b.eps[q] = slices.Clone(a.eps[q])
	}
	return b
}

// MoveInto unions into dst the states reached from cur by one sid edge,
// without ε-closure; on an ε-free automaton it is StepIDInto. It only
// reads a, so automata that are no longer mutated can be stepped from
// several goroutines at once.
func (a *NFA) MoveInto(dst, cur IntSet, sid int32) {
	for q := range cur.All() {
		for _, t := range a.trans[q].get(sid) {
			dst.Add(int(t))
		}
	}
}

// UsefulSymbols returns the sorted symbols that occur in some accepted
// string ("the alphabet of the language", used by dual(τ) in Def. 4).
//
// They are the symbols on edges between useful states, the edges Trim
// keeps; no trimmed copy is built.
func (a *NFA) UsefulSymbols() []Symbol {
	useful := a.reachableFrom(a.start).Intersect(a.coReachable(a.final))
	ids := collectAlphabet(func(yield func(int32)) {
		for q := range useful.All() {
			row := &a.trans[q]
			for i, sid := range row.syms {
				for _, t := range row.ts[i] {
					if useful.Has(int(t)) {
						yield(sid)
						break
					}
				}
			}
		}
	})
	out := make([]Symbol, len(ids))
	for i, id := range ids {
		out[i] = SymbolName(id)
	}
	return out
}

// EachTransition calls f for every transition (from, sym, to), with from
// ascending, symbols in name order per state, and targets ascending.
func (a *NFA) EachTransition(f func(from int, sym Symbol, to int)) {
	ids := a.AlphabetIDs()
	for q := range a.trans {
		for _, sid := range ids {
			ts := a.trans[q].get(sid)
			if len(ts) == 0 {
				continue
			}
			name := SymbolName(sid)
			for _, t := range ts {
				f(q, name, int(t))
			}
		}
	}
}

// String renders the automaton in a compact human-readable form for
// debugging and golden tests.
func (a *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "start=%d final=%v\n", a.start, a.final.Sorted())
	ids := a.AlphabetIDs()
	for q := range a.trans {
		for _, sid := range ids {
			ts := a.trans[q].get(sid)
			if len(ts) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %d -%s-> %v\n", q, SymbolName(sid), ts)
		}
		if len(a.eps[q]) > 0 {
			fmt.Fprintf(&b, "  %d -ε-> %v\n", q, a.eps[q])
		}
	}
	return b.String()
}

// Size returns a size measure for the automaton: states plus transitions.
// It is the ‖·‖ measure used in the paper's Table 2 size rows.
func (a *NFA) Size() int {
	n := a.NumStates()
	for q := range a.trans {
		for _, ts := range a.trans[q].ts {
			n += len(ts)
		}
		n += len(a.eps[q])
	}
	return n
}
