package core

import (
	"dxml/internal/strlang"
)

// This file holds the machinery of the sound-tuple search of
// Theorem 6.11 (BoxDesign.searchSoundTuples): D, the determinization of
// the target built on demand, and the images of the kernel's boxes and
// Dec(Ωi) cells over D's states. A word reaches one D-state, the set of
// target states it can end in, so a language reaches a set of D-states:
// its frontier. After trimming every target state is co-reachable, so a
// word is a prefix of [A] iff its D-state is not the empty subset. The one
// exception is an empty [A], whose trimmed start state is kept: such a
// target has no Dec(Ωi) cells, so the search never prunes over it.

// deadState is D's empty subset.
const deadState = 0

// targetDFA is the subset automaton D of a trimmed target, determinized
// on demand: a D-state is an ε-closed set of target states, interned by
// its bitset key, and each transition is computed the first time it is
// stepped.
type targetDFA struct {
	nfa   *strlang.NFA
	sets  []strlang.IntSet
	ids   map[string]int32
	final strlang.IntSet  // the D-states holding a final target state
	col   map[int32]int32 // symbol id → column of next, over the target's alphabet
	next  []int32         // next[d·len(col)+column]: the successor, -1 until stepped
	start int32
}

func newTargetDFA(target *strlang.NFA) *targetDFA {
	t, _ := target.Trim()
	alpha := t.AlphabetIDs()
	a := &targetDFA{
		nfa:   t,
		ids:   map[string]int32{},
		final: strlang.NewIntSet(),
		col:   make(map[int32]int32, len(alpha)),
	}
	for i, sid := range alpha {
		a.col[sid] = int32(i)
	}
	a.intern(strlang.NewIntSet())
	a.start = a.intern(t.ClosureOf(t.Start()).Copy())
	return a
}

// intern returns the D-state of the ε-closed set s, adding it if new.
func (a *targetDFA) intern(s strlang.IntSet) int32 {
	k := s.Key()
	if id, ok := a.ids[k]; ok {
		return id
	}
	id := int32(len(a.sets))
	a.sets = append(a.sets, s)
	a.ids[k] = id
	if s.Intersects(a.nfa.Finals()) {
		a.final.Add(int(id))
	}
	for range len(a.col) {
		a.next = append(a.next, -1)
	}
	return id
}

// step returns the D-state reached from d by the symbol with id sid; a
// symbol outside the target's alphabet leads to the dead state.
func (a *targetDFA) step(d, sid int32) int32 {
	c, ok := a.col[sid]
	if !ok || d == deadState {
		return deadState
	}
	i := int(d)*len(a.col) + int(c)
	if a.next[i] < 0 {
		next := strlang.NewIntSet()
		a.nfa.StepIDInto(next, a.sets[d], sid)
		id := a.intern(next)
		a.next[i] = id
	}
	return a.next[i]
}

// frontierSearch holds D and the image rows of one design's boxes and
// cells. A row img(d) is the set of D-states reachable from d by reading
// a word of the box (or cell); it is built the first time d enters a
// frontier and reused after.
type frontierSearch struct {
	dfa   *targetDFA
	boxes [][][]int32 // per box, per position: its symbols' ids (-1 if never interned)
	cells [][]Cell
	// boxRows[j][d]: the image of box j; cellRows[i][c][d]: the image of
	// cell c of function i followed by box i+1.
	boxRows  [][]strlang.IntSet
	cellRows [][][]strlang.IntSet
	// Scratch of the cell-row search over (D-state, cell state) pairs.
	seen  strlang.IntSet
	queue []stateCell
}

// stateCell is a node of the cell-row search: a D-state and a state of
// the cell's automaton.
type stateCell struct {
	d int32
	q int
}

func newFrontierSearch(target *strlang.NFA, boxes []strlang.Box, cells [][]Cell) *frontierSearch {
	s := &frontierSearch{
		dfa:      newTargetDFA(target),
		boxes:    make([][][]int32, len(boxes)),
		cells:    cells,
		boxRows:  make([][]strlang.IntSet, len(boxes)),
		cellRows: make([][][]strlang.IntSet, len(cells)),
		seen:     strlang.NewIntSet(),
	}
	for j, box := range boxes {
		s.boxes[j] = make([][]int32, len(box))
		for k, set := range box {
			ids := make([]int32, len(set))
			for x, sym := range set {
				ids[x] = -1
				if sid, ok := strlang.LookupSymID(sym); ok {
					ids[x] = sid
				}
			}
			s.boxes[j][k] = ids
		}
	}
	for i, cs := range cells {
		s.cellRows[i] = make([][]strlang.IntSet, len(cs))
	}
	return s
}

// storeRow records v as row d of rows.
func storeRow(rows []strlang.IntSet, d int32, v strlang.IntSet) []strlang.IntSet {
	for len(rows) <= int(d) {
		rows = append(rows, nil)
	}
	rows[d] = v
	return rows
}

// boxRow returns the image of d under box j (shared; do not mutate).
func (s *frontierSearch) boxRow(j int, d int32) strlang.IntSet {
	if rows := s.boxRows[j]; int(d) < len(rows) && rows[d] != nil {
		return rows[d]
	}
	cur := strlang.NewIntSet(int(d))
	for _, pos := range s.boxes[j] {
		next := strlang.NewIntSet()
		for p := range cur.All() {
			for _, sid := range pos {
				next.Add(int(s.dfa.step(int32(p), sid)))
			}
		}
		cur = next
	}
	s.boxRows[j] = storeRow(s.boxRows[j], d, cur)
	return cur
}

// cellRow returns the image of d under cell c of function i followed by
// box i+1 (shared; do not mutate). The cell part is a search over pairs of
// a D-state and a state of the cell's automaton, which has no ε-edges:
// DecomposeCells builds it by a subset construction.
func (s *frontierSearch) cellRow(i, c int, d int32) strlang.IntSet {
	if rows := s.cellRows[i][c]; int(d) < len(rows) && rows[d] != nil {
		return rows[d]
	}
	cell := s.cells[i][c].Lang
	ns := cell.NumStates()
	s.seen.Clear()
	s.queue = s.queue[:0]
	visit := func(p int32, q int) {
		if k := int(p)*ns + q; !s.seen.Has(k) {
			s.seen.Add(k)
			s.queue = append(s.queue, stateCell{p, q})
		}
	}
	out := strlang.NewIntSet()
	visit(d, cell.Start())
	for len(s.queue) > 0 {
		x := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if cell.IsFinal(x.q) {
			out.AddAll(s.boxRow(i+1, x.d))
		}
		syms, targets := cell.Edges(x.q)
		for k, sid := range syms {
			p := s.dfa.step(x.d, sid)
			for _, t := range targets[k] {
				visit(p, int(t))
			}
		}
	}
	s.cellRows[i][c] = storeRow(s.cellRows[i][c], d, out)
	return out
}
