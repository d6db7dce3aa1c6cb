// Package uta implements unranked tree automata (Section 2.1.3 of the
// paper): nondeterministic unranked tree automata (nUTA), membership,
// emptiness, bottom-up determinization (dUTA), and language inclusion and
// equivalence. These are the engines behind equiv[R-EDTD] (Theorem 4.7) and
// the normalization of R-EDTDs (Lemma 4.10).
package uta

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// StateSym encodes a UTA state id as a symbol for the horizontal word
// automata (the content languages Δ(q, a) are word languages over states).
func StateSym(q int) strlang.Symbol { return strconv.Itoa(q) }

// stateSymID returns the interned symbol id of StateSym(q), so the hot
// horizontal-automaton loops can step by dense id instead of formatting
// and hashing a string per state.
func stateSymID(q int) int32 {
	symIDMu.RLock()
	if q < len(symIDCache) {
		id := symIDCache[q]
		symIDMu.RUnlock()
		return id
	}
	symIDMu.RUnlock()
	symIDMu.Lock()
	for len(symIDCache) <= q {
		symIDCache = append(symIDCache, strlang.Intern(StateSym(len(symIDCache))))
	}
	id := symIDCache[q]
	symIDMu.Unlock()
	return id
}

var (
	symIDMu    sync.RWMutex
	symIDCache []int32
)

// SymState decodes a state symbol.
func SymState(s strlang.Symbol) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		panic(fmt.Sprintf("uta: bad state symbol %q", s))
	}
	return v
}

// NUTA is a nondeterministic unranked tree automaton A = ⟨K, Σ, Δ, F⟩:
// Δ maps (state, label) pairs to word automata over state symbols. A tree t
// is accepted if some state assignment µ exists with µ(root) ∈ F and, for
// every node x, µ(children(x)) ∈ [Δ(µ(x), lab(x))] (with the empty word for
// leaves).
//
// SetDelta keeps each content automaton in ε-free form, built once, so
// membership, inclusion and determinization read the same copies and
// never rebuild them. Once built, a NUTA is only read: decisions on it may
// run from several goroutines at once.
type NUTA struct {
	numStates int
	finals    strlang.IntSet
	delta     map[deltaKey]*strlang.NFA // ε-free
	byLabel   map[string][]int          // states q with Δ(q, label), ascending
}

type deltaKey struct {
	state int
	label string
}

// NewNUTA returns an automaton with n states and no transitions.
func NewNUTA(n int) *NUTA {
	return &NUTA{
		numStates: n,
		finals:    strlang.NewIntSet(),
		delta:     map[deltaKey]*strlang.NFA{},
		byLabel:   map[string][]int{},
	}
}

// AddState adds a state and returns its id.
func (a *NUTA) AddState() int {
	a.numStates++
	return a.numStates - 1
}

// NumStates returns the number of states.
func (a *NUTA) NumStates() int { return a.numStates }

// MarkFinal makes q final (a root-accepting state).
func (a *NUTA) MarkFinal(q int) { a.finals.Add(q) }

// Finals returns the final states (shared).
func (a *NUTA) Finals() strlang.IntSet { return a.finals }

// SetDelta sets Δ(q, label) to the language of the given word automaton
// over state symbols. The automaton keeps content's ε-free form, built
// here once; content itself is not retained.
func (a *NUTA) SetDelta(q int, label string, content *strlang.NFA) {
	k := deltaKey{q, label}
	if _, ok := a.delta[k]; !ok {
		qs := a.byLabel[label]
		i, _ := slices.BinarySearch(qs, q)
		a.byLabel[label] = slices.Insert(qs, i, q)
	}
	a.delta[k] = content.WithoutEps()
}

// Delta returns Δ(q, label) in its ε-free form (shared; do not mutate), or
// nil when undefined (empty content language).
func (a *NUTA) Delta(q int, label string) *strlang.NFA {
	return a.delta[deltaKey{q, label}]
}

// Labels returns the sorted label alphabet of the automaton.
func (a *NUTA) Labels() []string {
	out := make([]string, 0, len(a.byLabel))
	for l := range a.byLabel {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// statesFor returns the states q with Δ(q, label) defined, sorted (shared;
// do not mutate).
func (a *NUTA) statesFor(label string) []int { return a.byLabel[label] }

// symIDs returns the interned state symbol of every state of a.
func (a *NUTA) symIDs() []int32 {
	ids := make([]int32, a.numStates)
	for q := range ids {
		ids[q] = stateSymID(q)
	}
	return ids
}

// PossibleStates returns the set of states the automaton may assign to the
// root of t (the standard bottom-up membership computation; polynomial).
func (a *NUTA) PossibleStates(t *xmltree.Tree) strlang.IntSet {
	childSets := make([]strlang.IntSet, len(t.Children))
	for i, c := range t.Children {
		childSets[i] = a.PossibleStates(c)
	}
	out := strlang.NewIntSet()
	for _, q := range a.statesFor(t.Label) {
		nfa := a.Delta(q, t.Label)
		if acceptsSomeSequence(nfa, childSets) {
			out.Add(q)
		}
	}
	return out
}

// acceptsSomeSequence reports whether the ε-free nfa accepts some word
// w1…wk with wi ∈ {StateSym(q) : q ∈ sets[i]}.
func acceptsSomeSequence(nfa *strlang.NFA, sets []strlang.IntSet) bool {
	cur := strlang.NewIntSet(nfa.Start())
	for _, set := range sets {
		next := strlang.NewIntSet()
		for q := range set.All() {
			nfa.MoveInto(next, cur, stateSymID(q))
		}
		cur = next
		if cur.Len() == 0 {
			return false
		}
	}
	return cur.Intersects(nfa.Finals())
}

// Accepts reports whether a accepts t.
func (a *NUTA) Accepts(t *xmltree.Tree) bool {
	return a.PossibleStates(t).Intersects(a.finals)
}

// ReachableStates returns the states q for which some tree is assigned q
// (the nonempty states), by a least fixpoint.
func (a *NUTA) ReachableStates() strlang.IntSet {
	reached := strlang.NewIntSet()
	for {
		changed := false
		for key, nfa := range a.delta {
			if reached.Has(key.state) {
				continue
			}
			if acceptsSomeWordOver(nfa, reached) {
				reached.Add(key.state)
				changed = true
			}
		}
		if !changed {
			return reached
		}
	}
}

// acceptsSomeWordOver reports whether the ε-free nfa accepts some word all
// of whose symbols are state symbols of allowed.
func acceptsSomeWordOver(nfa *strlang.NFA, allowed strlang.IntSet) bool {
	seen := strlang.NewIntSet(nfa.Start())
	for {
		if seen.Intersects(nfa.Finals()) {
			return true
		}
		next := seen.Copy()
		for q := range allowed.All() {
			nfa.MoveInto(next, seen, stateSymID(q))
		}
		if next.Len() == seen.Len() {
			return false
		}
		seen = next
	}
}

// IsEmpty reports whether [a] = ∅.
func (a *NUTA) IsEmpty() bool {
	return !a.ReachableStates().Intersects(a.finals)
}

// SomeTree returns a smallest-effort witness tree in [a], or nil if the
// language is empty. It materializes, for each nonempty state, one tree
// assigned that state, visiting labels and states in sorted order so the
// result does not depend on map order.
func (a *NUTA) SomeTree() *xmltree.Tree {
	labels := a.Labels()
	witness := map[int]*xmltree.Tree{}
	for {
		changed := false
		for _, label := range labels {
			for _, q := range a.byLabel[label] {
				if _, done := witness[q]; done {
					continue
				}
				if seq, ok := someSequence(a.Delta(q, label), witness); ok {
					witness[q] = xmltree.New(label, seq...)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for q := range a.finals.All() {
		if t, ok := witness[q]; ok {
			return t
		}
	}
	return nil
}

// someSequence finds an accepted word of the ε-free nfa over the state
// symbols having witnesses, returning the corresponding child trees.
func someSequence(nfa *strlang.NFA, witness map[int]*xmltree.Tree) ([]*xmltree.Tree, bool) {
	start := strlang.NewIntSet(nfa.Start())
	if start.Intersects(nfa.Finals()) {
		return nil, true
	}
	states := make([]int, 0, len(witness))
	for q := range witness {
		states = append(states, q)
	}
	slices.Sort(states)
	// BFS over subset states, remembering the chosen symbol path.
	type entry struct {
		set  strlang.IntSet
		path []int
	}
	seen := map[string]bool{start.Key(): true}
	queue := []entry{{start, nil}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, q := range states {
			next := strlang.NewIntSet()
			nfa.MoveInto(next, e.set, stateSymID(q))
			if next.Len() == 0 || seen[next.Key()] {
				continue
			}
			seen[next.Key()] = true
			path := append(append([]int{}, e.path...), q)
			if next.Intersects(nfa.Finals()) {
				trees := make([]*xmltree.Tree, len(path))
				for i, s := range path {
					trees[i] = witness[s].Clone()
				}
				return trees, true
			}
			queue = append(queue, entry{next, path})
		}
	}
	return nil, false
}
