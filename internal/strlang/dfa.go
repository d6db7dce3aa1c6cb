package strlang

import (
	"slices"
	"sort"
	"sync/atomic"
)

// dfaRow is a state's transition table: parallel slices sorted by interned
// symbol id. An absent entry means δ is undefined there.
type dfaRow struct {
	syms []int32 // sorted distinct symbol ids
	to   []int32 // parallel targets
}

// get returns the target for sid and whether it is defined.
func (r *dfaRow) get(sid int32) (int32, bool) {
	if i, ok := slices.BinarySearch(r.syms, sid); ok {
		return r.to[i], true
	}
	return 0, false
}

// set defines δ for sid, reporting whether sid is new to this row.
func (r *dfaRow) set(sid, to int32) (newSym bool) {
	i, ok := slices.BinarySearch(r.syms, sid)
	if !ok {
		r.syms = slices.Insert(r.syms, i, sid)
		r.to = slices.Insert(r.to, i, to)
		return true
	}
	r.to[i] = to
	return false
}

// remove undefines δ for sid.
func (r *dfaRow) remove(sid int32) {
	if i, ok := slices.BinarySearch(r.syms, sid); ok {
		r.syms = slices.Delete(r.syms, i, i+1)
		r.to = slices.Delete(r.to, i, i+1)
	}
}

func (r *dfaRow) clone() dfaRow {
	return dfaRow{syms: slices.Clone(r.syms), to: slices.Clone(r.to)}
}

// DFA is a partial deterministic finite automaton: a missing transition
// rejects. States are 0..NumStates()-1. Transitions are keyed by interned
// symbol id in compact sorted rows; the alphabet is cached until the next
// mutation, and published atomically as the NFA's caches are.
type DFA struct {
	start int
	final []bool
	trans []dfaRow

	// alpha caches the symbol ids with at least one defined transition,
	// sorted by symbol name; nil means dirty.
	alpha atomic.Pointer[[]int32]
}

// NewDFA returns a DFA with a single non-final start state.
func NewDFA() *DFA {
	d := &DFA{}
	d.AddState(false)
	return d
}

// AddState adds a state and returns its id.
func (d *DFA) AddState(final bool) int {
	d.final = append(d.final, final)
	d.trans = append(d.trans, dfaRow{})
	return len(d.final) - 1
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.final) }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// SetStart makes q the start state.
func (d *DFA) SetStart(q int) { d.start = q }

// IsFinal reports whether q is final.
func (d *DFA) IsFinal(q int) bool { return d.final[q] }

// SetFinal sets the finality of q.
func (d *DFA) SetFinal(q int, f bool) { d.final[q] = f }

// SetTransition sets δ(from, sym) = to, overwriting any previous target.
func (d *DFA) SetTransition(from int, sym Symbol, to int) {
	if sym == "" {
		panic("strlang: empty symbol in DFA transition")
	}
	d.SetTransitionID(from, Intern(sym), to)
}

// SetTransitionID sets δ(from, sid) = to by interned symbol id.
func (d *DFA) SetTransitionID(from int, sid int32, to int) {
	if d.trans[from].set(sid, int32(to)) {
		invalidate(&d.alpha)
	}
}

// removeTransition makes δ(from, sid) undefined.
func (d *DFA) removeTransition(from int, sid int32) {
	d.trans[from].remove(sid)
	invalidate(&d.alpha)
}

// Next returns δ(q, sym) and whether it is defined.
func (d *DFA) Next(q int, sym Symbol) (int, bool) {
	sid, ok := LookupSymID(sym)
	if !ok {
		return 0, false
	}
	return d.NextID(q, sid)
}

// NextID is Next by interned symbol id.
func (d *DFA) NextID(q int, sid int32) (int, bool) {
	t, ok := d.trans[q].get(sid)
	return int(t), ok
}

// AlphabetIDs returns the interned ids of symbols with a defined
// transition, sorted by symbol name (shared slice; do not mutate).
func (d *DFA) AlphabetIDs() []int32 {
	if alpha := d.alpha.Load(); alpha != nil {
		return *alpha
	}
	alpha := collectAlphabet(func(yield func(int32)) {
		for q := range d.trans {
			for _, sid := range d.trans[q].syms {
				yield(sid)
			}
		}
	})
	d.alpha.Store(&alpha)
	return alpha
}

// Alphabet returns the sorted symbols appearing on transitions.
func (d *DFA) Alphabet() []Symbol {
	ids := d.AlphabetIDs()
	out := make([]Symbol, len(ids))
	for i, id := range ids {
		out[i] = SymbolName(id)
	}
	return out
}

// Accepts reports whether d accepts w.
func (d *DFA) Accepts(w []Symbol) bool {
	q := d.start
	for _, s := range w {
		t, ok := d.Next(q, s)
		if !ok {
			return false
		}
		q = t
	}
	return d.final[q]
}

// Clone returns a deep copy of d.
func (d *DFA) Clone() *DFA {
	b := &DFA{start: d.start}
	b.alpha.Store(d.alpha.Load())
	b.final = slices.Clone(d.final)
	b.trans = make([]dfaRow, len(d.trans))
	for q := range d.trans {
		b.trans[q] = d.trans[q].clone()
	}
	return b
}

// NFA converts d to an equivalent NFA.
func (d *DFA) NFA() *NFA {
	a := &NFA{start: d.start, final: NewIntSet()}
	for q := 0; q < d.NumStates(); q++ {
		a.AddState()
		if d.final[q] {
			a.MarkFinal(q)
		}
	}
	for q := range d.trans {
		row := &d.trans[q]
		for i, sid := range row.syms {
			a.AddTransitionID(q, sid, int(row.to[i]))
		}
	}
	return a
}

// Determinize converts a to an equivalent partial DFA by the subset
// construction (the empty subset is not materialized). Subsets are
// bitsets keyed by their packed word encoding, and each symbol is stepped
// by interned id over the precomputed ε-closures.
func (a *NFA) Determinize() *DFA {
	d := &DFA{}
	alphabet := a.AlphabetIDs()
	startSet := a.Closure(NewIntSet(a.start))
	ids := map[string]int{}
	var sets []IntSet
	newState := func(s IntSet) int {
		id := len(sets)
		sets = append(sets, s)
		ids[s.Key()] = id
		d.final = append(d.final, s.Intersects(a.final))
		d.trans = append(d.trans, dfaRow{})
		return id
	}
	d.start = newState(startSet)
	for i := 0; i < len(sets); i++ {
		cur := sets[i]
		for _, sid := range alphabet {
			next := a.StepID(cur, sid)
			if next.Len() == 0 {
				continue
			}
			id, ok := ids[next.Key()]
			if !ok {
				id = newState(next)
			}
			d.SetTransitionID(i, sid, id)
		}
	}
	return d
}

// Trim returns an equivalent DFA with only useful states (reachable and
// co-reachable); the start state is always kept.
func (d *DFA) Trim() *DFA {
	n := d.NumStates()
	// Forward reachability.
	fwd := NewIntSet(d.start)
	stack := []int32{int32(d.start)}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.trans[q].to {
			if !fwd.Has(int(t)) {
				fwd.Add(int(t))
				stack = append(stack, t)
			}
		}
	}
	// Backward from finals.
	rev := make([][]int32, n)
	for q := range d.trans {
		for _, t := range d.trans[q].to {
			rev[t] = append(rev[t], int32(q))
		}
	}
	bwd := NewIntSet()
	for q := 0; q < n; q++ {
		if d.final[q] {
			bwd.Add(q)
			stack = append(stack, int32(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !bwd.Has(int(p)) {
				bwd.Add(int(p))
				stack = append(stack, p)
			}
		}
	}
	keep := fwd.Intersect(bwd)
	keep.Add(d.start)
	old2new := make([]int32, n)
	for i := range old2new {
		old2new[i] = -1
	}
	b := &DFA{}
	for q := range keep.All() {
		old2new[q] = int32(b.AddState(d.final[q]))
	}
	b.start = int(old2new[d.start])
	for q := range keep.All() {
		row := &d.trans[q]
		for i, sid := range row.syms {
			if nt := old2new[row.to[i]]; nt >= 0 {
				b.SetTransitionID(int(old2new[q]), sid, int(nt))
			}
		}
	}
	return b
}

// Minimize returns the minimal trimmed partial DFA equivalent to d, via
// Moore partition refinement over the completed automaton. Round
// signatures are packed little-endian int32 class vectors — no symbol
// names are rendered — so each refinement round is a single map pass over
// byte strings.
func (d *DFA) Minimize() *DFA {
	t := d.Trim()
	n := t.NumStates()
	alphabet := t.AlphabetIDs()
	// class[q] for states; the implicit rejecting sink keeps the sentinel
	// class -1 throughout.
	class := make([]int32, n)
	for q := 0; q < n; q++ {
		if t.final[q] {
			class[q] = 1
		}
	}
	buf := make([]byte, 0, 4*(len(alphabet)+1))
	for {
		next := make(map[string]int32, n)
		newClass := make([]int32, n)
		changed := false
		for q := 0; q < n; q++ {
			buf = buf[:0]
			buf = appendInt32(buf, class[q])
			for _, sid := range alphabet {
				c := int32(-1)
				if to, ok := t.trans[q].get(sid); ok {
					c = class[to]
				}
				buf = appendInt32(buf, c)
			}
			id, ok := next[string(buf)]
			if !ok {
				id = int32(len(next))
				next[string(buf)] = id
			}
			newClass[q] = id
			if id != class[q] {
				changed = true
			}
		}
		class = newClass
		if !changed {
			break
		}
	}
	// Rebuild.
	numClasses := 0
	for _, c := range class {
		if int(c)+1 > numClasses {
			numClasses = int(c) + 1
		}
	}
	b := &DFA{}
	rep := make([]int, numClasses)
	for i := range rep {
		rep[i] = -1
	}
	for q := 0; q < n; q++ {
		if rep[class[q]] == -1 {
			rep[class[q]] = q
		}
	}
	for c := 0; c < numClasses; c++ {
		b.AddState(t.final[rep[c]])
	}
	b.start = int(class[t.start])
	for c := 0; c < numClasses; c++ {
		q := rep[c]
		row := &t.trans[q]
		for i, sid := range row.syms {
			b.SetTransitionID(c, sid, int(class[row.to[i]]))
		}
	}
	return b.Trim()
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Complete returns a total DFA over the given alphabet, adding an explicit
// rejecting sink if needed.
func (d *DFA) Complete(alphabet []Symbol) *DFA {
	ids := make([]int32, len(alphabet))
	for i, s := range alphabet {
		ids[i] = Intern(s)
	}
	b := d.Clone()
	sink := -1
	need := func() int {
		if sink == -1 {
			sink = b.AddState(false)
			for _, sid := range ids {
				b.SetTransitionID(sink, sid, sink)
			}
		}
		return sink
	}
	for q := 0; q < d.NumStates(); q++ {
		for _, sid := range ids {
			if _, ok := b.NextID(q, sid); !ok {
				b.SetTransitionID(q, sid, need())
			}
		}
	}
	return b
}

// Complement returns a DFA for Σ* − [d], where Σ is the given alphabet
// (which must contain every symbol of d).
func (d *DFA) Complement(alphabet []Symbol) *DFA {
	b := d.Complete(alphabet)
	for q := range b.final {
		b.final[q] = !b.final[q]
	}
	return b
}

// EachTransition calls f for every defined transition (from, sym, to),
// with from ascending and symbols in name order per state.
func (d *DFA) EachTransition(f func(from int, sym Symbol, to int)) {
	ids := d.AlphabetIDs()
	for q := range d.trans {
		for _, sid := range ids {
			if to, ok := d.trans[q].get(sid); ok {
				f(q, SymbolName(sid), int(to))
			}
		}
	}
}

// Size returns states plus transitions.
func (d *DFA) Size() int {
	n := d.NumStates()
	for q := range d.trans {
		n += len(d.trans[q].syms)
	}
	return n
}

// sortSymbols sorts a small symbol slice in place.
func sortSymbols(s []Symbol) {
	sort.Strings(s)
}
