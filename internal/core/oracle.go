package core

import (
	"fmt"
	"sort"
	"strings"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
)

// This file provides independent candidate-and-verify deciders for
// cons[SDTD] and cons[DTD], used as differential-testing oracles for the
// merge algorithm of cons.go. They build the only possible reduced
// candidate of the target class and check tree-language equivalence with
// T(τn):
//
//   - for SDTDs, the candidate's specialized names are the reachable
//     witness sets of the determinized dual (ancestor-string contexts,
//     Lemma 3.5);
//   - for DTDs, the candidate's content model for element a is the union
//     over all useful specializations ã of µ(π(ã)) (closure under subtree
//     substitution, Lemma 3.12).

// ConsSDTDCandidate decides cons[nFA-SDTD] by candidate construction and
// EDTD equivalence. It returns the candidate when consistent.
func ConsSDTDCandidate(k *axml.Kernel, typing Typing) (ConsResult, error) {
	comp, err := Compose(k, typing)
	if err != nil {
		return ConsResult{}, err
	}
	red, err := comp.Reduce()
	if err != nil {
		return ConsResult{}, fmt.Errorf("core: T(τn) is empty: %w", err)
	}
	// Determinize the dual: subset states over specialized names.
	type subset struct {
		key   string
		names []string
		elem  string
	}
	intern := map[string]*subset{}
	mk := func(names []string) *subset {
		sort.Strings(names)
		key := strings.Join(names, "+")
		if s, ok := intern[key]; ok {
			return s
		}
		s := &subset{key: key, names: names, elem: red.Elem(names[0])}
		intern[key] = s
		return s
	}
	// successor subset of s on element e.
	succ := func(s *subset, e string) *subset {
		var next []string
		seen := map[string]bool{}
		for _, n := range s.names {
			for _, c := range red.Rule(n).UsefulSymbols() {
				if red.Elem(c) == e && !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		return mk(next)
	}
	// Roots: group starts by element name; an SDTD has a single start, so
	// multiple root elements make the language non-single-type… unless a
	// single subset covers them (same element).
	rootByElem := map[string][]string{}
	for _, s := range red.Starts {
		rootByElem[red.Elem(s)] = append(rootByElem[red.Elem(s)], s)
	}
	if len(rootByElem) != 1 {
		return ConsResult{Consistent: false, Reason: "roots with several element names"}, nil
	}
	var rootSubset *subset
	for _, names := range rootByElem {
		rootSubset = mk(names)
	}
	// BFS over subsets.
	queue := []*subset{rootSubset}
	visited := map[string]bool{rootSubset.key: true}
	nameOf := func(s *subset) string { return "{" + s.key + "}" }
	cand := schema.NewEDTD(schema.KindNFA, nameOf(rootSubset), rootSubset.elem)
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		cand.DeclareName(nameOf(s), s.elem)
		// Content: union of the members' contents, symbols rewritten to
		// successor subsets. Trimming first guarantees every remaining
		// transition symbol is useful, so its successor subset exists.
		var parts []*strlang.NFA
		for _, n := range s.names {
			trimmed, _ := red.Rule(n).Lang().Trim()
			parts = append(parts, trimmed.MapSymbols(func(c string) string {
				return nameOf(succ(s, red.Elem(c)))
			}))
		}
		cand.MustSetRule(nameOf(s), schema.NewContentNFA(strlang.UnionAll(parts...)))
		// Enqueue successors.
		elems := map[string]bool{}
		for _, n := range s.names {
			for _, c := range red.Rule(n).UsefulSymbols() {
				elems[red.Elem(c)] = true
			}
		}
		var sortedElems []string
		for e := range elems {
			sortedElems = append(sortedElems, e)
		}
		sort.Strings(sortedElems)
		for _, e := range sortedElems {
			n := succ(s, e)
			if n != nil && !visited[n.key] {
				visited[n.key] = true
				queue = append(queue, n)
			}
		}
	}
	if ok, _ := cand.IsSingleType(); !ok {
		return ConsResult{}, fmt.Errorf("core: internal error: candidate is not single-type")
	}
	if ok, w := schema.EquivalentEDTD(red, cand); !ok {
		return ConsResult{Consistent: false,
			Reason: fmt.Sprintf("single-type candidate differs on tree %s", w)}, nil
	}
	return ConsResult{Consistent: true, EDTD: cand}, nil
}

// ConsDTDCandidate decides cons[nFA-DTD] by candidate construction and
// EDTD equivalence.
func ConsDTDCandidate(k *axml.Kernel, typing Typing) (ConsResult, error) {
	comp, err := Compose(k, typing)
	if err != nil {
		return ConsResult{}, err
	}
	red, err := comp.Reduce()
	if err != nil {
		return ConsResult{}, fmt.Errorf("core: T(τn) is empty: %w", err)
	}
	rootElems := map[string]bool{}
	for _, s := range red.Starts {
		rootElems[red.Elem(s)] = true
	}
	if len(rootElems) != 1 {
		return ConsResult{Consistent: false, Reason: "roots with several element names"}, nil
	}
	cand := schema.NewDTD(schema.KindNFA, red.Elem(red.Starts[0]))
	for _, el := range red.ElementNames() {
		var parts []*strlang.NFA
		for _, n := range red.Specializations(el) {
			parts = append(parts, red.ProjectedRule(n))
		}
		union := strlang.UnionAll(parts...)
		if union.AcceptsEps() && len(union.UsefulSymbols()) == 0 {
			continue
		}
		cand.Rules[el] = schema.NewContentNFA(union)
	}
	if ok, w := schema.EquivalentEDTD(red, cand.ToEDTD()); !ok {
		return ConsResult{Consistent: false,
			Reason: fmt.Sprintf("DTD candidate differs on tree %s", w)}, nil
	}
	return ConsResult{Consistent: true, DTD: cand, EDTD: cand.ToEDTD()}, nil
}
