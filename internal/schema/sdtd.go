package schema

import (
	"fmt"
	"strings"

	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// This file implements the single-type (R-SDTD, Definition 6) view of an
// EDTD: the deterministic top-down witness assignment, the dual automaton
// over element names, and conversions between DTDs and (S/E)DTDs.

// ToEDTD lifts a DTD into the trivially specialized EDTD of Section 3.3:
// each element name is its own specialization.
func (d *DTD) ToEDTD() *EDTD {
	e := NewEDTD(d.Kind, d.Start, d.Start)
	for a, c := range d.Rules {
		e.Names[a] = a
		e.Rules[a] = c
	}
	for _, a := range d.Alphabet() {
		if _, ok := e.Names[a]; !ok {
			e.Names[a] = a
		}
	}
	return e
}

// AsDTD converts an EDTD whose every element name has exactly one
// specialization back into a DTD. It fails otherwise.
func (e *EDTD) AsDTD() (*DTD, error) {
	if len(e.Starts) != 1 {
		return nil, fmt.Errorf("schema: EDTD has %d starts, want 1", len(e.Starts))
	}
	byElem := map[string]string{}
	for _, n := range e.SpecializedNames() {
		el := e.Elem(n)
		if prev, ok := byElem[el]; ok && prev != n {
			return nil, fmt.Errorf("schema: element %s has several specializations (%s, %s)", el, prev, n)
		}
		byElem[el] = n
	}
	d := NewDTD(e.Kind, e.Elem(e.Starts[0]))
	for _, n := range e.SpecializedNames() {
		c, ok := e.Rules[n]
		if !ok {
			continue
		}
		projected, err := FromNFA(e.Kind, projectNFA(c.Lang(), e.Elem))
		if err != nil {
			return nil, fmt.Errorf("schema: projecting rule %s: %w", n, err)
		}
		d.Rules[e.Elem(n)] = projected
	}
	return d, nil
}

// projectNFA relabels an NFA over specialized names by f (typically µ).
func projectNFA(nfa *strlang.NFA, f func(string) string) *strlang.NFA {
	out := strlang.NewNFA()
	for q := 1; q < nfa.NumStates(); q++ {
		out.AddState()
	}
	out.SetStart(nfa.Start())
	for q := range nfa.Finals().All() {
		out.MarkFinal(q)
	}
	nfa.EachTransition(func(from int, s strlang.Symbol, to int) {
		out.AddTransition(from, f(s), to)
	})
	for q := 0; q < nfa.NumStates(); q++ {
		for _, t := range nfa.EpsSucc(q) {
			out.AddEps(q, int(t))
		}
	}
	return out
}

// ProjectedRule returns µ(π(name)): the content model language with
// specialized names projected to element names.
func (e *EDTD) ProjectedRule(name string) *strlang.NFA {
	return projectNFA(e.Rule(name).Lang(), e.Elem)
}

// witnessTable returns, for each specialized name ã, the map from element
// name b to the unique specialization b̃ occurring in π(ã)'s alphabet.
// Only meaningful for single-type EDTDs.
func (e *EDTD) witnessTable() map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, n := range e.SpecializedNames() {
		m := map[string]string{}
		for _, b := range e.Rule(n).UsefulSymbols() {
			m[e.Elem(b)] = b
		}
		out[n] = m
	}
	return out
}

// ValidateSingleType validates t against a single-type EDTD with the
// deterministic top-down witness assignment (linear in ‖t‖ modulo content
// membership tests). It fails if e is not single-type.
func (e *EDTD) ValidateSingleType(t *xmltree.Tree) error {
	if ok, el := e.IsSingleType(); !ok {
		return fmt.Errorf("schema: not single-type (element %s)", el)
	}
	var start string
	found := false
	for _, s := range e.Starts {
		if e.Elem(s) == t.Label {
			start, found = s, true
			break
		}
	}
	if !found {
		return fmt.Errorf("schema: root %s matches no start", t.Label)
	}
	wt := e.witnessTable()
	var rec func(n *xmltree.Tree, witness string, path []string) error
	rec = func(n *xmltree.Tree, witness string, path []string) error {
		table := wt[witness]
		mapped := make([]strlang.Symbol, len(n.Children))
		for i, c := range n.Children {
			w, ok := table[c.Label]
			if !ok {
				return fmt.Errorf("schema: at %s: child %s not allowed under witness %s",
					strings.Join(path, "/"), c.Label, witness)
			}
			mapped[i] = w
		}
		if !e.Rule(witness).Accepts(mapped) {
			return fmt.Errorf("schema: at %s: children %v ∉ [π(%s)]",
				strings.Join(path, "/"), n.ChildStr(), witness)
		}
		for i, c := range n.Children {
			if err := rec(c, mapped[i], append(path, c.Label)); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(t, start, []string{t.Label})
}

// WitnessOf returns the witness tree assigned to t by a single-type EDTD:
// t with each label replaced by its specialized name. It fails when t is
// invalid.
func (e *EDTD) WitnessOf(t *xmltree.Tree) (*xmltree.Tree, error) {
	if err := e.ValidateSingleType(t); err != nil {
		return nil, err
	}
	wt := e.witnessTable()
	var start string
	for _, s := range e.Starts {
		if e.Elem(s) == t.Label {
			start = s
			break
		}
	}
	var rec func(n *xmltree.Tree, witness string) *xmltree.Tree
	rec = func(n *xmltree.Tree, witness string) *xmltree.Tree {
		out := &xmltree.Tree{Label: witness}
		for _, c := range n.Children {
			out.Children = append(out.Children, rec(c, wt[witness][c.Label]))
		}
		return out
	}
	return rec(t, start), nil
}

// Dual returns dual(τ) for the EDTD (Definitions 4 and 6): the automaton of
// root-to-node element-name paths whose states are {q0} ∪ {q_ã}. For
// single-type EDTDs it is deterministic and is returned as a DFA along with
// the state index; for general EDTDs use DualNFA.
func (e *EDTD) Dual() (*strlang.DFA, map[string]int, error) {
	if ok, el := e.IsSingleType(); !ok {
		return nil, nil, fmt.Errorf("schema: dual is nondeterministic (element %s); not single-type", el)
	}
	names := e.SpecializedNames()
	idx := map[string]int{}
	dfa := strlang.NewDFA()
	for _, n := range names {
		idx[n] = dfa.AddState(e.Rule(n).AcceptsEps())
	}
	for _, s := range e.Starts {
		dfa.SetTransition(0, e.Elem(s), idx[s])
	}
	for _, n := range names {
		for _, b := range e.Rule(n).UsefulSymbols() {
			dfa.SetTransition(idx[n], e.Elem(b), idx[b])
		}
	}
	return dfa, idx, nil
}

// DualNFA returns the (possibly nondeterministic) dual of the EDTD over
// element names.
func (e *EDTD) DualNFA() (*strlang.NFA, map[string]int) {
	names := e.SpecializedNames()
	idx := map[string]int{}
	nfa := strlang.NewNFA() // state 0 = q0
	for _, n := range names {
		q := nfa.AddState()
		idx[n] = q
		if e.Rule(n).AcceptsEps() {
			nfa.MarkFinal(q)
		}
	}
	for _, s := range e.Starts {
		nfa.AddTransition(0, e.Elem(s), idx[s])
	}
	for _, n := range names {
		for _, b := range e.Rule(n).UsefulSymbols() {
			nfa.AddTransition(idx[n], e.Elem(b), idx[b])
		}
	}
	return nfa, idx
}
