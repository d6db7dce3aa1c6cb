package core

import (
	"fmt"

	"dxml/internal/axml"
	"dxml/internal/strlang"
)

// This file implements the perfect automaton Ω(A, w) of Section 6
// (Algorithm 1), generalized to kernel boxes as in Section 7: the
// string case is the box case with singleton sets.
//
// The solvers use the chain analysis below, which computes the legal local
// automata Aut(Ωi) — the automata surviving Algorithm 1's correction steps
// — by a forward/backward pass over the Ini/Fin delimited-state sets. The
// literal ε-glued Ω of Figure 7 is also materialized (OmegaNFA) and is
// cross-checked against the chain analysis in the tests.

// LocalAuto is a legal local automaton A(qi, qf) ∈ Aut(Ωi).
type LocalAuto struct {
	Qi, Qf int
	Lang   *strlang.NFA
}

// PerfectAutomaton is Ω(A, B) for a target automaton A and a kernel box B.
type PerfectAutomaton struct {
	target *strlang.NFA
	kernel *axml.KernelBox
	// aut[i] is Aut(Ω_{i+1}): the legal local automata for function i.
	aut [][]LocalAuto
	// omegaI[i] is Ω_{i+1} = ∪ Aut(Ω_{i+1}).
	omegaI []*strlang.NFA
	// viableEnd[i] ⊆ K: states where the w_i segment may end on a legal
	// chain; viableStart[i]: states where the w_i segment may start.
	viableEnd   []strlang.IntSet
	viableStart []strlang.IntSet
	// omega is the materialized Ω, built on first use.
	omega *strlang.NFA
}

// BuildPerfect constructs Ω(A, B). A may contain ε-transitions.
func BuildPerfect(target *strlang.NFA, kernel *axml.KernelBox) *PerfectAutomaton {
	p := &PerfectAutomaton{target: target, kernel: kernel}
	n := kernel.NumFuncs()
	k := target.NumStates()

	// Forward pass.
	// feEnd[i]: states reachable as the end of the B_i segment on some
	// forward-legal prefix chain; fsStart[i]: legal starts of B_i.
	feEnd := make([]strlang.IntSet, n+1)
	fsStart := make([]strlang.IntSet, n+1)
	startSet := target.Closure(strlang.NewIntSet(target.Start()))
	fsStart[0] = startSet
	feEnd[0] = stepBoxFrom(target, startSet, kernel.Boxes[0])
	reach := make([]strlang.IntSet, k)
	for q := 0; q < k; q++ {
		reach[q] = target.Reach(q)
	}
	rev := target.Reverse()
	coReach := make([]strlang.IntSet, k)
	for q := 0; q < k; q++ {
		coReach[q] = rev.Reach(q)
	}
	for i := 1; i <= n; i++ {
		ini := strlang.IniBox(target, kernel.Boxes[i])
		// from = ini ∩ ⋃{reach[q] : q ∈ feEnd[i-1]}, word-wise.
		acc := strlang.NewIntSet()
		for q := range feEnd[i-1].All() {
			acc.AddAll(reach[q])
		}
		from := acc.Intersect(ini)
		fsStart[i] = from
		feEnd[i] = stepBoxFrom(target, target.Closure(from), kernel.Boxes[i])
	}

	// Backward pass.
	p.viableEnd = make([]strlang.IntSet, n+1)
	p.viableStart = make([]strlang.IntSet, n+1)
	p.viableEnd[n] = feEnd[n].Intersect(target.Finals())
	for i := n; i >= 1; i-- {
		// viableStart[i]: starts of B_i from which the segment can land in
		// viableEnd[i].
		vs := strlang.NewIntSet()
		for q := range fsStart[i].All() {
			res := stepBoxFrom(target, target.Closure(strlang.NewIntSet(q)), kernel.Boxes[i])
			if res.Intersects(p.viableEnd[i]) {
				vs.Add(q)
			}
		}
		p.viableStart[i] = vs
		// viableEnd[i-1]: ends of B_{i-1} that can reach some viable start.
		ve := strlang.NewIntSet()
		for q := range feEnd[i-1].All() {
			if reach[q].Intersects(vs) {
				ve.Add(q)
			}
		}
		p.viableEnd[i-1] = ve
	}
	p.viableStart[0] = startSet

	// Legal local automata.
	p.aut = make([][]LocalAuto, n)
	p.omegaI = make([]*strlang.NFA, n)
	for i := 1; i <= n; i++ {
		var autos []LocalAuto
		for _, q := range p.viableEnd[i-1].Sorted() {
			for _, qf := range p.viableStart[i].Sorted() {
				if !reach[q].Has(qf) {
					continue
				}
				la, ok := strlang.LocalAutomaton(target, q, qf)
				if !ok {
					continue
				}
				autos = append(autos, LocalAuto{Qi: q, Qf: qf, Lang: la})
			}
		}
		p.aut[i-1] = autos
		langs := make([]*strlang.NFA, len(autos))
		for j, a := range autos {
			langs[j] = a.Lang
		}
		p.omegaI[i-1] = strlang.UnionAll(langs...)
	}
	return p
}

// stepBoxFrom reads the box through the automaton from the ε-closed set.
func stepBoxFrom(a *strlang.NFA, from strlang.IntSet, box strlang.Box) strlang.IntSet {
	cur := from
	for _, set := range box {
		next := strlang.NewIntSet()
		for _, s := range set {
			next.AddAll(a.Step(cur, s))
		}
		cur = next
	}
	return cur
}

// Compatible reports whether A is compatible with the kernel: some legal
// chain exists, equivalently some sound typing exists (Section 6).
func (p *PerfectAutomaton) Compatible() bool {
	return p.viableEnd[len(p.viableEnd)-1].Len() > 0
}

// Aut returns Aut(Ωi) for function i (1-based), the set of legal local
// automata.
func (p *PerfectAutomaton) Aut(i int) []LocalAuto { return p.aut[i-1] }

// OmegaI returns Ωi = ∪Aut(Ωi) for function i (1-based).
func (p *PerfectAutomaton) OmegaI(i int) *strlang.NFA { return p.omegaI[i-1] }

// TypingOmega returns the typing (Ωn).
func (p *PerfectAutomaton) TypingOmega() WordTyping {
	out := make(WordTyping, len(p.omegaI))
	copy(out, p.omegaI)
	return out
}

// Chains enumerates the legal chains (q0, s1, q1, …, sn, qn) of Seq(Ω):
// q_i are segment ends, s_i segment starts. Intended for tests and small
// instances; the number of chains is O(k^(2n)).
func (p *PerfectAutomaton) Chains() [][]int {
	n := p.kernel.NumFuncs()
	var out [][]int
	var rec func(i int, q int, acc []int)
	rec = func(i int, q int, acc []int) {
		if i > n {
			if p.target.Finals().Has(q) {
				out = append(out, append([]int(nil), acc...))
			}
			return
		}
		for _, s := range p.viableStart[i].Sorted() {
			if !p.target.Reach(q).Has(s) {
				continue
			}
			ends := stepBoxFrom(p.target, p.target.Closure(strlang.NewIntSet(s)), p.kernel.Boxes[i])
			for _, q2 := range ends.Intersect(p.viableEnd[i]).Sorted() {
				rec(i+1, q2, append(append(acc, s), q2))
			}
		}
	}
	for _, q0 := range p.viableEnd[0].Sorted() {
		rec(1, q0, []int{q0})
	}
	return out
}

// OmegaNFA materializes the literal ε-glued perfect automaton of
// Algorithm 1 / Figure 7 and returns it trimmed. Its language satisfies
// Ω ≤ A (Lemma 6.1). The automaton is built once; each call returns a
// copy of it.
func (p *PerfectAutomaton) OmegaNFA() *strlang.NFA {
	return p.omegaNFA().Clone()
}

// omegaNFA returns the automaton's own materialized Ω, built on first use.
func (p *PerfectAutomaton) omegaNFA() *strlang.NFA {
	if p.omega == nil {
		p.omega = p.buildOmegaNFA()
	}
	return p.omega
}

func (p *PerfectAutomaton) buildOmegaNFA() *strlang.NFA {
	n := p.kernel.NumFuncs()
	out := strlang.NewNFA()
	type ends struct{ ini, fin int }
	// W-layer automata: A(qi,qf) with (qi, B_i, qf) ∈ Δ*; X-layer automata
	// are the legal Aut(Ωi) members. Glue by endpoint labels.
	wLayer := make([]map[[2]int]ends, n+1)
	addCopy := func(la *strlang.NFA) ends {
		off := out.Graft(la)
		var fin int
		for q := range la.Finals().All() {
			fin = off + q
		}
		return ends{ini: off + la.Start(), fin: fin}
	}
	for i := 0; i <= n; i++ {
		wLayer[i] = map[[2]int]ends{}
		var inis []int
		if i == 0 {
			inis = []int{p.target.Start()} // correction step 5
		} else {
			inis = p.viableStart[i].Sorted()
		}
		for _, qi := range inis {
			targets := stepBoxFrom(p.target, p.target.Closure(strlang.NewIntSet(qi)), p.kernel.Boxes[i])
			for _, qf := range targets.Sorted() {
				if i == n && !p.target.Finals().Has(qf) {
					continue // correction step 7
				}
				la, ok := strlang.LocalAutomaton(p.target, qi, qf)
				if !ok {
					continue
				}
				wLayer[i][[2]int{qi, qf}] = addCopy(la)
			}
		}
	}
	// Start state: the W0 automata share the initial label s; merge via ε
	// from the NFA's start (correction step 6).
	for _, e := range wLayer[0] {
		out.AddEps(out.Start(), e.ini)
	}
	for i := 1; i <= n; i++ {
		for _, x := range p.aut[i-1] {
			xe := addCopy(x.Lang)
			for key, we := range wLayer[i-1] {
				if key[1] == x.Qi {
					out.AddEps(we.fin, xe.ini)
				}
			}
			for key, we := range wLayer[i] {
				if key[0] == x.Qf {
					out.AddEps(xe.fin, we.ini)
				}
			}
		}
	}
	for key, e := range wLayer[n] {
		if p.target.Finals().Has(key[1]) {
			out.MarkFinal(e.fin)
		}
	}
	trimmed, _ := out.Trim() // correction step 8
	return trimmed
}

// String summarizes the perfect automaton for debugging.
func (p *PerfectAutomaton) String() string {
	s := fmt.Sprintf("Ω over %s:\n", p.kernel)
	for i := range p.aut {
		s += fmt.Sprintf("  Aut(Ω%d): %d local automata; Ω%d = %s\n",
			i+1, len(p.aut[i]), i+1, strlang.RegexString(strlang.RegexFromNFA(p.omegaI[i])))
	}
	return s
}
