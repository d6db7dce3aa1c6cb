package strlang

import "slices"

// IsEmpty reports whether [a] = ∅.
func (a *NFA) IsEmpty() bool {
	return !a.reachableFrom(a.start).Intersects(a.final)
}

// Included reports whether [a] ⊆ [b]. When it does not hold, it returns the
// shortest witness in [a] − [b], and among those the least in the order of
// symbol names.
//
// Both sides are made ε-free once. The search is a breadth-first worklist
// over pairs (p, S) of a state p of a and the subset S of b's states
// reached by the same word, b determinized on the fly. It is pruned by an
// antichain (De Wulf, Doyen, Henzinger and Raskin, CAV 2006): a new pair
// (p, S) is dropped when a pair (p, S′) with S′ ⊆ S is already known,
// since every word that leads from (p, S) to a counterexample leads from
// (p, S′) to one too. The known pair was found first, by a word no longer
// and no greater, so the pruning never loses the least witness. Only
// known pairs prune new ones; a known pair is never evicted.
//
// Included only reads a and b.
func Included(a, b *NFA) (bool, []Symbol) {
	return included(epsFree(a), epsFree(b))
}

// Equivalent reports whether [a] = [b]. When it does not hold it returns a
// witness in the symmetric difference: the Included witness of [a] − [b]
// if there is one, else that of [b] − [a]. Each side is made ε-free once
// for both directions.
func Equivalent(a, b *NFA) (bool, []Symbol) {
	ea, eb := epsFree(a), epsFree(b)
	if ok, w := included(ea, eb); !ok {
		return false, w
	}
	if ok, w := included(eb, ea); !ok {
		return false, w
	}
	return true, nil
}

// Proper reports whether [a] ⊂ [b] (strict inclusion).
func Proper(a, b *NFA) bool {
	ea, eb := epsFree(a), epsFree(b)
	if ok, _ := included(ea, eb); !ok {
		return false
	}
	ok, _ := included(eb, ea)
	return !ok
}

// epsFree returns a itself when it has no ε-edge, and its ε-free copy
// otherwise; the inclusion search only reads what it is given.
func epsFree(a *NFA) *NFA {
	for _, ts := range a.eps {
		if len(ts) > 0 {
			return a.WithoutEps()
		}
	}
	return a
}

// inclNode is a discovered pair of the word inclusion search: a state of a
// and the id of a subset of b's states.
type inclNode struct{ p, s int32 }

// included is Included on ε-free automata. It only reads them.
func included(ea, eb *NFA) (bool, []Symbol) {
	// Rank symbols by name once, so each node visits its row's symbols in
	// name order without a per-node sort unless its row needs one.
	alpha := collectAlphabet(func(yield func(int32)) {
		for q := range ea.trans {
			for _, sid := range ea.trans[q].syms {
				yield(sid)
			}
		}
	})
	rank := make(map[int32]int, len(alpha))
	for i, sid := range alpha {
		rank[sid] = i
	}

	// Subsets of b, interned by key; steps are memoized per (subset, symbol).
	var sets []IntSet
	byKey := map[string]int32{}
	intern := func(s IntSet) int32 {
		k := s.Key()
		if id, ok := byKey[k]; ok {
			return id
		}
		id := int32(len(sets))
		sets = append(sets, s.Copy())
		byKey[k] = id
		return id
	}
	type stepKey struct{ s, sid int32 }
	steps := map[stepKey]int32{}
	scratch := NewIntSet()
	step := func(s, sid int32) int32 {
		if t, ok := steps[stepKey{s, sid}]; ok {
			return t
		}
		scratch.Clear()
		eb.MoveInto(scratch, sets[s], sid)
		t := intern(scratch)
		steps[stepKey{s, sid}] = t
		return t
	}
	bad := func(n inclNode) bool {
		return ea.final.Has(int(n.p)) && !sets[n.s].Intersects(eb.final)
	}

	// The nodes in discovery order are the BFS queue; parent and sym are
	// each node's back-pointer, followed only to spell a witness.
	nodes := []inclNode{{int32(ea.start), intern(NewIntSet(eb.start))}}
	parent := []int32{-1}
	sym := []int32{0}
	known := make([][]int32, ea.NumStates()) // per state of a: its subsets, an antichain
	known[ea.start] = []int32{nodes[0].s}
	witness := func(i int32) []Symbol {
		var w []Symbol
		for ; parent[i] >= 0; i = parent[i] {
			w = append(w, SymbolName(sym[i]))
		}
		slices.Reverse(w)
		return w
	}
	if bad(nodes[0]) {
		return false, witness(0)
	}
	var order []int
	for head := int32(0); int(head) < len(nodes); head++ {
		cur := nodes[head]
		row := &ea.trans[cur.p]
		order = order[:0]
		sorted := true
		for i, sid := range row.syms {
			order = append(order, i)
			sorted = sorted && (i == 0 || rank[row.syms[i-1]] < rank[sid])
		}
		if !sorted {
			slices.SortFunc(order, func(x, y int) int { return rank[row.syms[x]] - rank[row.syms[y]] })
		}
		for _, i := range order {
			sid := row.syms[i]
			next := step(cur.s, sid)
			for _, t := range row.ts[i] {
				if dominated(sets, known[t], next) {
					continue
				}
				known[t] = append(known[t], next)
				n := inclNode{t, next}
				nodes = append(nodes, n)
				parent = append(parent, head)
				sym = append(sym, sid)
				if bad(n) {
					return false, witness(int32(len(nodes) - 1))
				}
			}
		}
	}
	return true, nil
}

// dominated reports whether some subset among ids is contained in the
// subset s (s itself included).
func dominated(sets []IntSet, ids []int32, s int32) bool {
	for _, id := range ids {
		if id == s || sets[id].SubsetOf(sets[s]) {
			return true
		}
	}
	return false
}
