package uta

import (
	"slices"

	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// DUTA is the bottom-up determinization of an NUTA: every tree is assigned
// exactly one d-state, the set of n-states the original automaton could
// assign to it (possibly the empty set). D-states and the per-label
// horizontal product automata are materialized lazily and interned.
//
// The construction follows the classical subset determinization of
// unranked tree automata [15] as used by the paper in Section 4.3: for a
// node labeled a whose children carry d-states S1…Sk, the node's d-state is
// {q : Δ(q,a) accepts some q1…qk with qi ∈ Si}.
type DUTA struct {
	n      *NUTA
	syms   []int32 // interned state symbol of each n-state
	labels []string
	states []strlang.IntSet
	byKey  map[string]int
	prod   map[string]*labelProduct
}

// labelProduct is the horizontal product of one label's content automata.
// A product state is one set over the disjoint union of their states: the
// states of nfas[i] occupy bits base[i] onward.
type labelProduct struct {
	qs      []int            // n-states with Δ(q, label), sorted
	nfas    []*strlang.NFA   // their ε-free content automata, the NUTA's own
	base    []int32          // first bit of each nfas[i]
	owner   []int32          // bit → index into nfas
	finals  strlang.IntSet   // bits of final content states
	pstates []strlang.IntSet // product states
	byKey   map[string]int
	trans   [][]int32 // trans[p][d]: 1 + the pstate p steps to by d-state d; 0 unknown
	ntrans  int       // known entries of trans
	sig     []int     // pstate → d-state id of accept signature
	start   int
}

// Determinize returns the DUTA of a over the given label alphabet, which
// must include every label of a (extra labels are allowed and behave as
// “always empty d-state”).
func Determinize(a *NUTA, labels []string) *DUTA {
	all := map[string]struct{}{}
	for _, l := range a.Labels() {
		all[l] = struct{}{}
	}
	for _, l := range labels {
		all[l] = struct{}{}
	}
	sorted := make([]string, 0, len(all))
	for l := range all {
		sorted = append(sorted, l)
	}
	slices.Sort(sorted)
	d := &DUTA{
		n:      a,
		syms:   a.symIDs(),
		labels: sorted,
		byKey:  map[string]int{},
		prod:   map[string]*labelProduct{},
	}
	// Intern the empty d-state first so that unknown labels have id 0.
	d.intern(strlang.NewIntSet())
	return d
}

// intern returns the id of the given d-state set, creating it if needed.
func (d *DUTA) intern(s strlang.IntSet) int {
	k := s.Key()
	if id, ok := d.byKey[k]; ok {
		return id
	}
	id := len(d.states)
	d.states = append(d.states, s)
	d.byKey[k] = id
	return id
}

// EmptyID returns the id of the empty d-state.
func (d *DUTA) EmptyID() int { return 0 }

// NumDStates returns the number of d-states discovered so far (after
// Explore, all of them).
func (d *DUTA) NumDStates() int { return len(d.states) }

// StateSet returns the set of n-states of d-state id.
func (d *DUTA) StateSet(id int) strlang.IntSet { return d.states[id] }

// IsFinal reports whether d-state id is accepting (meets the NUTA finals).
func (d *DUTA) IsFinal(id int) bool { return d.states[id].Intersects(d.n.finals) }

// Labels returns the label alphabet of the determinization.
func (d *DUTA) Labels() []string { return d.labels }

// product returns the per-label product machinery, creating it on demand.
func (d *DUTA) product(label string) *labelProduct {
	if lp, ok := d.prod[label]; ok {
		return lp
	}
	lp := &labelProduct{byKey: map[string]int{}, finals: strlang.NewIntSet()}
	lp.qs = d.n.statesFor(label)
	start := strlang.NewIntSet()
	for i, q := range lp.qs {
		nfa := d.n.Delta(q, label)
		base := int32(len(lp.owner))
		lp.nfas = append(lp.nfas, nfa)
		lp.base = append(lp.base, base)
		for x := 0; x < nfa.NumStates(); x++ {
			lp.owner = append(lp.owner, int32(i))
		}
		for x := range nfa.Finals().All() {
			lp.finals.Add(int(base) + x)
		}
		start.Add(int(base) + nfa.Start())
	}
	lp.start = d.addPState(lp, start)
	d.prod[label] = lp
	return lp
}

func (d *DUTA) addPState(lp *labelProduct, t strlang.IntSet) int {
	k := t.Key()
	if id, ok := lp.byKey[k]; ok {
		return id
	}
	id := len(lp.pstates)
	lp.pstates = append(lp.pstates, t)
	lp.trans = append(lp.trans, nil)
	lp.byKey[k] = id
	// Accept signature: the d-state of stopping here.
	sig := strlang.NewIntSet()
	for x := range t.All() {
		if lp.finals.Has(x) {
			sig.Add(lp.qs[lp.owner[x]])
		}
	}
	lp.sig = append(lp.sig, d.intern(sig))
	return id
}

// step advances product state p of label by a child d-state, memoized.
func (d *DUTA) step(lp *labelProduct, p int, dstate int) int {
	if row := lp.trans[p]; dstate < len(row) && row[dstate] > 0 {
		return int(row[dstate]) - 1
	}
	childSet := d.states[dstate]
	next := strlang.NewIntSet()
	for x := range lp.pstates[p].All() {
		i := lp.owner[x]
		nfa, base := lp.nfas[i], lp.base[i]
		for q := range childSet.All() {
			for _, t := range nfa.SuccID(x-int(base), d.syms[q]) {
				next.Add(int(base + t))
			}
		}
	}
	t := d.addPState(lp, next)
	row := lp.trans[p]
	if dstate >= len(row) {
		row = append(row, make([]int32, dstate+1-len(row))...)
		lp.trans[p] = row
	}
	row[dstate] = int32(t) + 1
	lp.ntrans++
	return t
}

// StateOf returns the d-state id assigned to t.
func (d *DUTA) StateOf(t *xmltree.Tree) int {
	lp := d.product(t.Label)
	p := lp.start
	for _, c := range t.Children {
		p = d.step(lp, p, d.StateOf(c))
	}
	return lp.sig[p]
}

// Accepts reports whether the underlying NUTA accepts t (deterministically
// recomputed through the DUTA).
func (d *DUTA) Accepts(t *xmltree.Tree) bool { return d.IsFinal(d.StateOf(t)) }

// Explore materializes all reachable d-states and product transitions by a
// least fixpoint. Worst-case exponential in the NUTA size, as determinization
// must be.
func (d *DUTA) Explore() {
	for _, l := range d.labels {
		d.product(l)
	}
	for {
		changed := false
		for _, l := range d.labels {
			lp := d.prod[l]
			for p := 0; p < len(lp.pstates); p++ {
				for id := 0; id < len(d.states); id++ {
					if row := lp.trans[p]; id < len(row) && row[id] > 0 {
						continue
					}
					before := len(d.states)
					beforeP := len(lp.pstates)
					d.step(lp, p, id)
					if len(d.states) > before || len(lp.pstates) > beforeP {
						changed = true
					}
					changed = true // a new transition was added
				}
			}
		}
		if !changed {
			break
		}
		// Check whether anything actually grew: if every (p, id) pair of
		// every label has a transition, we are done.
		done := true
		for _, l := range d.labels {
			lp := d.prod[l]
			if lp.ntrans < len(lp.pstates)*len(d.states) {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
}

// ContentDFA returns, after Explore, the horizontal DFA over d-state
// symbols for the given label whose accepted sequences S1…Sk yield exactly
// the d-state want: states are product states, finals are those with
// signature want. This is the content model of the normalized EDTD
// (Section 4.3).
func (d *DUTA) ContentDFA(label string, want int) *strlang.DFA {
	lp := d.product(label)
	dfa := &strlang.DFA{}
	for p := 0; p < len(lp.pstates); p++ {
		dfa.AddState(lp.sig[p] == want)
	}
	dfa.SetStart(lp.start)
	for p, row := range lp.trans {
		for id, t := range row {
			if t > 0 {
				dfa.SetTransition(p, StateSym(id), int(t)-1)
			}
		}
	}
	return dfa
}

// ReachableDStates returns, after Explore, the ids of d-states that are
// actually assigned to some tree (the start signatures and everything
// generated from them), excluding purely synthetic ones. In practice every
// interned d-state is reachable by construction.
func (d *DUTA) ReachableDStates() []int {
	out := make([]int, len(d.states))
	for i := range out {
		out[i] = i
	}
	return out
}
