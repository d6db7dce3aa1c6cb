package uta

import (
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// Included reports whether [a] ⊆ [b]. When inclusion fails it returns a
// witness tree in [a] − [b]; the same inputs always give the same witness.
// The check is EXPTIME in the worst case, matching the lower bound for
// equiv[R-EDTD] (Theorem 4.7).
//
// The decision is a worklist over pairs (q, S): a state q of a and the
// d-state S of b (the set of b's states) that some tree is assigned by a
// and by b's lazily built determinization. For each label and each state
// q of a, a search walks a's ε-free content automaton Δ(q, label) jointly
// with b's horizontal product for the label, reading the known pairs as
// child symbols; each node it reaches at a final content state yields the
// pair (q, signature). When a pair is found, only the search nodes that
// can read it are stepped by it, so no label × state is rescanned. The
// pairs are pruned by an antichain (Bouajjani, Habermehl, Holík, Touili
// and Vojnar, CIAA 2008): a new pair (q, S) is dropped when a pair
// (q, S′) with S′ ⊆ S is known, since a tree built over (q, S) and
// rejected by b stays rejected with (q, S′) in its place. The search
// stops at the first pair (q, S) with q final in a and S meeting no final
// state of b.
//
// Each pair and search node records only a back-pointer: the node it was
// stepped from and the pair it read. The witness tree is spelled from
// them once, on failure.
func Included(a, b *NUTA) (bool, *xmltree.Tree) {
	inc := newInclusion(a, Determinize(b, nil))
	k := inc.run()
	if k < 0 {
		return true, nil
	}
	return false, inc.tree(k)
}

// Equivalent reports whether [a] = [b]; on failure it returns a witness
// tree in the symmetric difference: Included's witness in [a] − [b] if
// there is one, else its witness in [b] − [a]. Both directions read the
// same ε-free content automata, built once by SetDelta.
func Equivalent(a, b *NUTA) (bool, *xmltree.Tree) {
	if ok, t := Included(a, b); !ok {
		return false, t
	}
	if ok, t := Included(b, a); !ok {
		return false, t
	}
	return true, nil
}

// inclusion is the state of one Included(a, b) decision.
type inclusion struct {
	a        *NUTA
	db       *DUTA
	symA     []int32       // interned state symbol of each state of a
	stateOf  map[int32]int // the inverse of symA
	searches []*inclSearch
	users    [][]int32 // per state of a: the searches whose content automaton reads it

	pairs  []inclPair
	byQ    [][]int32 // per state of a: its pairs' indices, ascending; an antichain
	active int       // pairs[:active] have stepped every search node that reads them
	queue  []nodeRef // search nodes in discovery order
	next   int       // queue[next:] have not been stepped by the active pairs
	found  int32     // the first pair that refutes inclusion, or -1
}

// inclPair is a discovered pair (q, d), with the search node whose
// content automaton accepted there as its back-pointer.
type inclPair struct {
	q, d         int
	search, node int32
}

// inclSearch walks one content automaton Δ(q, label) of a jointly with b's
// product for label.
type inclSearch struct {
	label string
	q     int
	nfa   *strlang.NFA // the NUTA's own ε-free automaton
	lp    *labelProduct
	nodes []searchNode
	seen  map[uint64]struct{} // (content state, product state) of every node
	byX   [][]int32           // node indices per content state
}

// searchNode is a node of a search: a content state x and a product state
// p, with the node it was stepped from and the pair it read (-1, -1 at the
// start node).
type searchNode struct {
	x, p         int32
	parent, pair int32
}

type nodeRef struct{ s, n int32 }

func newInclusion(a *NUTA, db *DUTA) *inclusion {
	inc := &inclusion{
		a:       a,
		db:      db,
		symA:    a.symIDs(),
		stateOf: make(map[int32]int, a.numStates),
		users:   make([][]int32, a.numStates),
		byQ:     make([][]int32, a.numStates),
		found:   -1,
	}
	for q, sid := range inc.symA {
		inc.stateOf[sid] = q
	}
	for _, label := range a.Labels() {
		lp := db.product(label)
		for _, q := range a.statesFor(label) {
			nfa := a.Delta(q, label)
			si := int32(len(inc.searches))
			inc.searches = append(inc.searches, &inclSearch{
				label: label, q: q, nfa: nfa, lp: lp,
				seen: map[uint64]struct{}{},
				byX:  make([][]int32, nfa.NumStates()),
			})
			var reads []bool
			for x := 0; x < nfa.NumStates(); x++ {
				syms, _ := nfa.Edges(x)
				for _, sid := range syms {
					c, ok := inc.stateOf[sid]
					if !ok {
						continue
					}
					if reads == nil {
						reads = make([]bool, a.numStates)
					}
					if !reads[c] {
						reads[c] = true
						inc.users[c] = append(inc.users[c], si)
					}
				}
			}
		}
	}
	return inc
}

// run closes the searches under the discovered pairs and returns the
// first pair that refutes inclusion, or -1 when inclusion holds.
func (inc *inclusion) run() int32 {
	for si, s := range inc.searches {
		inc.add(int32(si), int32(s.nfa.Start()), int32(s.lp.start), -1, -1)
		if inc.found >= 0 {
			return inc.found
		}
	}
	for {
		// Step every queued node by the active pairs, then let the next
		// pair step the nodes that existed before it.
		for inc.next < len(inc.queue) {
			r := inc.queue[inc.next]
			inc.next++
			inc.expand(r)
			if inc.found >= 0 {
				return inc.found
			}
		}
		if inc.active == len(inc.pairs) {
			return -1
		}
		k := int32(inc.active)
		inc.active++
		c := inc.pairs[k].q
		sid := inc.symA[c]
		for _, si := range inc.users[c] {
			s := inc.searches[si]
			n := int32(len(s.nodes))
			for x := range s.byX {
				ts := s.nfa.SuccID(x, sid)
				if len(ts) == 0 {
					continue
				}
				for _, ni := range s.byX[x] {
					if ni >= n {
						break
					}
					inc.stepNode(si, ni, k, ts)
					if inc.found >= 0 {
						return inc.found
					}
				}
			}
		}
	}
}

// expand steps a new search node by every active pair its content state
// can read.
func (inc *inclusion) expand(r nodeRef) {
	s := inc.searches[r.s]
	syms, tss := s.nfa.Edges(int(s.nodes[r.n].x))
	for i, sid := range syms {
		c, ok := inc.stateOf[sid]
		if !ok {
			continue
		}
		for _, k := range inc.byQ[c] {
			if int(k) >= inc.active {
				break
			}
			inc.stepNode(r.s, r.n, k, tss[i])
			if inc.found >= 0 {
				return
			}
		}
	}
}

// stepNode adds the nodes reached from node ni of search si by reading
// pair k, whose content successors are ts.
func (inc *inclusion) stepNode(si, ni, k int32, ts []int32) {
	s := inc.searches[si]
	p := inc.db.step(s.lp, int(s.nodes[ni].p), inc.pairs[k].d)
	for _, t := range ts {
		inc.add(si, t, int32(p), ni, k)
		if inc.found >= 0 {
			return
		}
	}
}

// add records the node (x, p) of search si unless it is known, queues it,
// and yields its pair when x is final.
func (inc *inclusion) add(si, x, p, parent, pair int32) {
	s := inc.searches[si]
	key := uint64(uint32(x))<<32 | uint64(uint32(p))
	if _, ok := s.seen[key]; ok {
		return
	}
	s.seen[key] = struct{}{}
	ni := int32(len(s.nodes))
	s.nodes = append(s.nodes, searchNode{x, p, parent, pair})
	s.byX[x] = append(s.byX[x], ni)
	inc.queue = append(inc.queue, nodeRef{si, ni})
	if s.nfa.IsFinal(int(x)) {
		inc.addPair(s.q, s.lp.sig[p], si, ni)
	}
}

// addPair records the pair (q, d) unless a known pair (q, d′) has
// d′ ⊆ d, and notes it when it refutes inclusion.
func (inc *inclusion) addPair(q, d int, si, ni int32) {
	set := inc.db.states[d]
	for _, k := range inc.byQ[q] {
		if known := inc.pairs[k].d; known == d || inc.db.states[known].SubsetOf(set) {
			return
		}
	}
	k := int32(len(inc.pairs))
	inc.pairs = append(inc.pairs, inclPair{q, d, si, ni})
	inc.byQ[q] = append(inc.byQ[q], k)
	if inc.a.finals.Has(q) && !inc.db.IsFinal(d) {
		inc.found = k
	}
}

// tree spells the tree of pair k from the back-pointers: the search's
// label over the trees of the pairs read on the way to its node. Those
// pairs were found before k, so the recursion ends.
func (inc *inclusion) tree(k int32) *xmltree.Tree {
	pr := inc.pairs[k]
	s := inc.searches[pr.search]
	var kids []int32
	for n := pr.node; s.nodes[n].parent >= 0; n = s.nodes[n].parent {
		kids = append(kids, s.nodes[n].pair)
	}
	children := make([]*xmltree.Tree, len(kids))
	for i, c := range kids {
		children[len(kids)-1-i] = inc.tree(c)
	}
	return xmltree.New(s.label, children...)
}
