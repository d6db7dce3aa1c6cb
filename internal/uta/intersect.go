package uta

import (
	"dxml/internal/strlang"
)

// Intersect returns a tree automaton for [a] ∩ [b] by the product
// construction: states are pairs, and the horizontal languages are products
// of the content automata reading pair symbols.
func Intersect(a, b *NUTA) *NUTA {
	na, nb := a.NumStates(), b.NumStates()
	pairID := func(p, q int) int { return p*nb + q }
	out := NewNUTA(na * nb)
	// Only labels known to both sides can carry transitions.
	for _, l := range a.Labels() {
		for p := 0; p < na; p++ {
			ca := a.Delta(p, l)
			if ca == nil {
				continue
			}
			for q := 0; q < nb; q++ {
				cb := b.Delta(q, l)
				if cb == nil {
					continue
				}
				out.SetDelta(pairID(p, q), l, productWordNFA(ca, cb, nb, pairID))
			}
		}
	}
	for p := range a.finals.All() {
		for q := range b.finals.All() {
			out.MarkFinal(pairID(p, q))
		}
	}
	return out
}

// productWordNFA builds the word automaton accepting sequences of pair
// symbols whose projections are accepted by the ε-free ca (first
// components) and cb (second components) respectively.
func productWordNFA(ca, cb *strlang.NFA, nb int, pairID func(int, int) int) *strlang.NFA {
	out := strlang.NewNFA()
	type node struct{ x, y int }
	ids := map[node]int{}
	var order []node
	get := func(n node) int {
		if id, ok := ids[n]; ok {
			return id
		}
		var id int
		if len(ids) == 0 {
			id = out.Start()
		} else {
			id = out.AddState()
		}
		ids[n] = id
		order = append(order, n)
		if ca.IsFinal(n.x) && cb.IsFinal(n.y) {
			out.MarkFinal(id)
		}
		return id
	}
	get(node{ca.Start(), cb.Start()})
	for i := 0; i < len(order); i++ {
		n := order[i]
		from := ids[n]
		symsA, tssA := ca.Edges(n.x)
		symsB, tssB := cb.Edges(n.y)
		for ia, sidA := range symsA {
			p := SymState(strlang.SymbolName(sidA))
			for ib, sidB := range symsB {
				q := SymState(strlang.SymbolName(sidB))
				sym := stateSymID(pairID(p, q))
				for _, ta := range tssA[ia] {
					for _, tb := range tssB[ib] {
						out.AddTransitionID(from, sym, get(node{int(ta), int(tb)}))
					}
				}
			}
		}
	}
	return out
}
