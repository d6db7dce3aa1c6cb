package core

import (
	"fmt"
	"sort"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// This file implements the bottom-up consistency problems cons[S]
// (Definition 11) and the constructions of typeT(τn) (Section 3):
//
//   - cons[R-EDTD] always answers yes (Corollary 3.3); ConsEDTD builds
//     typeT(τn) in the requested formalism R;
//   - cons[R-SDTD] runs the bottom-up merge algorithm of Theorem 3.10;
//   - cons[R-DTD] adds the per-element-name uniformity constraint of
//     Theorem 3.13;
//   - ConsSDTDCandidate / ConsDTDCandidate are independent
//     candidate-and-verify deciders used as differential-testing oracles.

// ConsResult is the outcome of a cons[S] decision.
type ConsResult struct {
	Consistent bool
	Reason     string       // explanation when not consistent
	EDTD       *schema.EDTD // typeT(τn) when consistent (SDTD/EDTD forms)
	DTD        *schema.DTD  // set by ConsDTD when consistent
}

// ConsEDTD decides cons[R-EDTD] — always consistent — and returns
// typeT(τn) with content models in the formalism kind. Per Corollary 3.3
// the conversion succeeds for every R when the typing itself is in R; for
// KindDRE with non-dRE inputs it may fail, which is reported as an error
// (not an inconsistency).
func ConsEDTD(k *axml.Kernel, typing Typing, kind schema.Kind) (*schema.EDTD, error) {
	comp, err := Compose(k, typing)
	if err != nil {
		return nil, err
	}
	return convertKind(comp, kind)
}

// convertKind re-expresses every content model of e in the given
// formalism.
func convertKind(e *schema.EDTD, kind schema.Kind) (*schema.EDTD, error) {
	out := &schema.EDTD{Kind: kind, Names: map[string]string{}, Rules: map[string]*schema.Content{}}
	out.Starts = append([]string(nil), e.Starts...)
	for _, n := range e.SpecializedNames() {
		out.Names[n] = e.Elem(n)
	}
	names := e.SpecializedNames()
	sort.Strings(names)
	for _, n := range names {
		c := e.Rule(n)
		if c.AcceptsEps() && len(c.UsefulSymbols()) == 0 {
			continue
		}
		nc, err := schema.FromNFA(kind, c.Lang())
		if err != nil {
			return nil, fmt.Errorf("core: rule %s: %w", n, err)
		}
		out.Rules[n] = nc
	}
	return out, nil
}

// ConsSDTD decides cons[R-SDTD]. It runs the merge algorithm of
// Theorem 3.10 as a fast path — bottom-up over the kernel, same-element
// specialized names occurring in one content model are merged when their
// subtree languages coincide — and falls back to the complete
// candidate-and-verify decision (ConsSDTDCandidate) when a conflict with
// unequal languages is found.
//
// The fallback is necessary for correctness, not just convenience: the
// paper's algorithm concludes “no equivalent R-SDTD” from any unequal
// conflict, but that is too strict. Counterexample (DESIGN.md erratum
// E5): T = s0(f1 f2) with [τ1] = s1(b?) (a leaf b) and
// [τ2] = s2((b(d*))*): the witnesses b@1 (leaf only) and b@2 (d*
// content) have different subtree languages, yet extT(τn) = s0((b(d*))*)
// is SDTD- (even DTD-) expressible, because every extension routes
// through τ2's richer type. Equality of the pair languages is sufficient
// for merging but its failure does not prove inexpressibility.
func ConsSDTD(k *axml.Kernel, typing Typing, kind schema.Kind) (ConsResult, error) {
	for i, tau := range typing {
		if ok, el := tau.IsSingleType(); !ok {
			return ConsResult{}, fmt.Errorf("core: type %d is not single-type (element %s)", i+1, el)
		}
	}
	comp, err := Compose(k, typing)
	if err != nil {
		return ConsResult{}, err
	}
	work := comp.Clone()
	// Process kernel nodes bottom-up (post-order). Content models of the
	// kernel witnesses are the only candidates for single-type conflicts.
	nodes := postOrderWitnesses(k)
	for _, w := range nodes {
		if err := mergeConflicts(work, w); err != nil {
			// Unequal conflict: decide exactly via the candidate.
			res, cErr := ConsSDTDCandidate(k, typing)
			if cErr != nil {
				return ConsResult{}, cErr
			}
			if !res.Consistent {
				res.Reason = err.Error()
				return res, nil
			}
			converted, cErr := convertKind(res.EDTD, kind)
			if cErr != nil {
				return ConsResult{Consistent: false, Reason: cErr.Error()}, nil
			}
			return ConsResult{Consistent: true, EDTD: converted}, nil
		}
	}
	if ok, el := work.IsSingleType(); !ok {
		// Conflicts may also hide inside imported rules when a function's
		// own content models splice other functions' names — impossible by
		// construction, so this indicates a typing that was not single-type
		// to begin with.
		return ConsResult{}, fmt.Errorf("core: typing is not single-type (element %s)", el)
	}
	converted, err := convertKind(work, kind)
	if err != nil {
		return ConsResult{Consistent: false, Reason: err.Error()}, nil
	}
	return ConsResult{Consistent: true, EDTD: converted}, nil
}

// postOrderWitnesses returns the composed witness names of the kernel's
// element nodes in post-order (children before parents), using the same
// preorder ids Compose assigned.
func postOrderWitnesses(k *axml.Kernel) []string {
	tree := k.Tree()
	idOf := map[*xmltree.Tree]int{}
	counter := 0
	var pre func(n *xmltree.Tree)
	pre = func(n *xmltree.Tree) {
		idOf[n] = counter
		counter++
		for _, c := range n.Children {
			pre(c)
		}
	}
	pre(tree)
	var out []string
	var post func(n *xmltree.Tree)
	post = func(n *xmltree.Tree) {
		for _, c := range n.Children {
			post(c)
		}
		if !k.IsFunc(n.Label) {
			out = append(out, fmt.Sprintf("%s^%d", n.Label, idOf[n]))
		}
	}
	post(tree)
	return out
}

// mergeConflicts resolves single-type conflicts in π(w) by merging
// equivalent specializations; it fails when a conflict is not mergeable.
func mergeConflicts(work *schema.EDTD, w string) error {
	for {
		conflict := findConflict(work, w)
		if conflict == nil {
			return nil
		}
		a, b := conflict[0], conflict[1]
		if !subtypeEquivalent(work, a, b) {
			return fmt.Errorf("content model of %s needs both %s and %s (element %s) with different subtree languages; no equivalent single-type exists",
				w, a, b, work.Elem(a))
		}
		mergeNames(work, a, b)
	}
}

// findConflict returns two distinct same-element names in π(w)'s alphabet,
// or nil.
func findConflict(work *schema.EDTD, w string) []string {
	byElem := map[string]string{}
	syms := work.Rule(w).UsefulSymbols()
	sort.Strings(syms)
	for _, n := range syms {
		el := work.Elem(n)
		if prev, ok := byElem[el]; ok && prev != n {
			return []string{prev, n}
		}
		byElem[el] = n
	}
	return nil
}

// subtypeEquivalent decides [work(ã)] = [work(b̃)], preferring the
// single-type procedure and falling back to tree automata.
func subtypeEquivalent(work *schema.EDTD, a, b string) bool {
	sa, sb := work.SubType(a), work.SubType(b)
	if okA, _ := sa.IsSingleType(); okA {
		if okB, _ := sb.IsSingleType(); okB {
			ok, _ := schema.EquivalentSDTD(sa, sb)
			return ok
		}
	}
	ok, _ := schema.EquivalentEDTD(sa, sb)
	return ok
}

// mergeNames rewrites b to a in every content model and drops b's rule.
func mergeNames(work *schema.EDTD, a, b string) {
	for _, n := range work.SpecializedNames() {
		if n == b {
			continue
		}
		c, ok := work.Rules[n]
		if !ok {
			continue
		}
		renamed := c.Lang().MapSymbols(func(s string) string {
			if s == b {
				return a
			}
			return s
		})
		work.Rules[n] = schema.NewContentNFA(renamed)
	}
	delete(work.Rules, b)
	delete(work.Names, b)
	for i, s := range work.Starts {
		if s == b {
			work.Starts[i] = a
		}
	}
}

// ConsDTD decides cons[R-DTD] (Theorem 3.13): the SDTD merge plus the
// requirement that all specializations of an element name have µ-equal
// content models; the resulting DTD has one rule per element name.
func ConsDTD(k *axml.Kernel, typing Typing, kind schema.Kind) (ConsResult, error) {
	res, err := ConsSDTD(k, typing, schema.KindNFA)
	if err != nil {
		return ConsResult{}, err
	}
	if !res.Consistent {
		return res, nil
	}
	sd, err := res.EDTD.Reduce()
	if err != nil {
		return ConsResult{}, fmt.Errorf("core: reducing merged SDTD: %w", err)
	}
	// Uniformity across contexts: µ-projected content models must agree
	// for all specializations of each element name (closure under subtree
	// substitution, Lemma 3.12).
	byElem := map[string][]string{}
	for _, n := range sd.SpecializedNames() {
		byElem[sd.Elem(n)] = append(byElem[sd.Elem(n)], n)
	}
	elems := make([]string, 0, len(byElem))
	for el := range byElem {
		elems = append(elems, el)
	}
	sort.Strings(elems)
	dtd := schema.NewDTD(kind, sd.Elem(sd.Starts[0]))
	for _, el := range elems {
		names := byElem[el]
		sort.Strings(names)
		first := sd.ProjectedRule(names[0])
		for _, n := range names[1:] {
			if ok, w := strlang.Equivalent(first, sd.ProjectedRule(n)); !ok {
				return ConsResult{
					Consistent: false,
					Reason: fmt.Sprintf("element %s has context-dependent content models (%s vs %s differ on %v); not closed under subtree substitution",
						el, names[0], n, w),
				}, nil
			}
		}
		if first.AcceptsEps() && len(first.UsefulSymbols()) == 0 {
			continue
		}
		c, err := schema.FromNFA(kind, first)
		if err != nil {
			return ConsResult{Consistent: false, Reason: err.Error()}, nil
		}
		dtd.Rules[el] = c
	}
	return ConsResult{Consistent: true, DTD: dtd, EDTD: dtd.ToEDTD()}, nil
}
