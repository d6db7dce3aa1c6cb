package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/uta"
	"dxml/internal/xmltree"
)

// This file implements the top-down design problems for R-EDTDs
// (Section 4.3): the global type is first normalized (Lemma 4.10), then
// candidate assignments κ from kernel nodes to sets of specialized names
// induce box designs D^x_κ (Definition 19); locality of the tree design is
// equivalent to the existence of a κ whose box designs are all local
// (Theorem 4.13), and the perfect κ can be computed top-down
// (Corollary 4.16).

// EDTDDesign is a top-down R-EDTD design ⟨τ, T⟩.
//
// The normalized type, the tree automaton of the type, the perfect κ, the
// κ space and the box designs of every κ are built on first use and reused by every procedure later
// called on the same value, together with what each box design derives
// (see BoxDesign); they are rebuilt when Type or Kernel is replaced or
// AllowTrivialTypes changes. Procedure results are not kept, and
// everything that depends on a typing passed in is checked on every call.
// A design is not safe for concurrent use, and Type and Kernel must not be
// modified in place after first use.
type EDTDDesign struct {
	Type              *schema.EDTD
	Kernel            *axml.Kernel
	AllowTrivialTypes bool

	derived *edtdDerived
}

// edtdDerived is what an EDTD design has built, with the fields it was
// built from.
type edtdDerived struct {
	typ          *schema.EDTD
	kernel       *axml.Kernel
	allowTrivial bool

	norm         *schema.EDTD
	typeNUTA     *uta.NUTA       // Type.ToNUTA, with its ε-free content automata
	nodes        []*xmltree.Tree // kernelElementNodes, the κ key order
	kappas       []Kappa
	perfectKappa Kappa
	perfectDone  bool
	boxes        map[string]boxDesignsEntry // by kappaKey
}

// boxDesignsEntry is the outcome of boxDesigns for one κ.
type boxDesignsEntry struct {
	designs []*NodeDesign
	err     error
}

// cache returns the design's derived artifacts, starting afresh when
// Type, Kernel or AllowTrivialTypes differs from what they were built
// from.
func (d *EDTDDesign) cache() *edtdDerived {
	c := d.derived
	if c == nil || c.typ != d.Type || c.kernel != d.Kernel || c.allowTrivial != d.AllowTrivialTypes {
		c = &edtdDerived{typ: d.Type, kernel: d.Kernel, allowTrivial: d.AllowTrivialTypes}
		d.derived = c
	}
	return c
}

// Normalized returns the normalized version of the design's type, built
// on first use.
func (d *EDTDDesign) Normalized() (*schema.EDTD, error) {
	c := d.cache()
	if c.norm == nil {
		n, err := schema.Normalize(d.Type, schema.KindNFA)
		if err != nil {
			return nil, err
		}
		c.norm = n
	}
	return c.norm, nil
}

// typeNUTA returns the tree automaton of the design's type, built on
// first use.
func (d *EDTDDesign) typeNUTA() *uta.NUTA {
	c := d.cache()
	if c.typeNUTA == nil {
		c.typeNUTA, _ = d.Type.ToNUTA()
	}
	return c.typeNUTA
}

// equivalentToType reports whether [comp] = [τ], against the kept tree
// automaton of τ.
func (d *EDTDDesign) equivalentToType(comp *schema.EDTD) bool {
	na, _ := comp.ToNUTA()
	ok, _ := uta.Equivalent(na, d.typeNUTA())
	return ok
}

// Kappa assigns to each kernel element node a nonempty set of specialized
// names of the normalized type (Definition 19), keyed by node pointer.
type Kappa map[*xmltree.Tree][]string

// clone copies κ down to its name sets.
func (k Kappa) clone() Kappa {
	if k == nil {
		return nil
	}
	out := make(Kappa, len(k))
	for n, names := range k {
		out[n] = slices.Clone(names)
	}
	return out
}

// kernelElementNodes lists the kernel's element nodes in document order.
func kernelElementNodes(k *axml.Kernel) []*xmltree.Tree {
	var out []*xmltree.Tree
	k.Tree().Walk(func(n *xmltree.Tree, _ []string) bool {
		if !k.IsFunc(n.Label) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// elementNodes returns kernelElementNodes of the design's kernel, listed
// on first use.
func (d *EDTDDesign) elementNodes() []*xmltree.Tree {
	c := d.cache()
	if c.nodes == nil {
		c.nodes = kernelElementNodes(d.Kernel)
	}
	return c.nodes
}

// kappaKey encodes κ as its name sets in kernelElementNodes order, each
// set and each name prefixed by its length, so distinct κ's get distinct
// keys.
func (d *EDTDDesign) kappaKey(kappa Kappa) string {
	var key []byte
	for _, n := range d.elementNodes() {
		names := kappa[n]
		key = strconv.AppendInt(key, int64(len(names)), 10)
		key = append(key, ';')
		for _, name := range names {
			key = strconv.AppendInt(key, int64(len(name)), 10)
			key = append(key, ':')
			key = append(key, name...)
		}
	}
	return string(key)
}

// boxDesigns returns the box designs D^x_κ of κ, built on first use for
// that κ.
func (d *EDTDDesign) boxDesigns(norm *schema.EDTD, kappa Kappa) ([]*NodeDesign, error) {
	c := d.cache()
	key := d.kappaKey(kappa)
	e, ok := c.boxes[key]
	if !ok {
		e.designs, e.err = d.buildBoxDesigns(norm, kappa)
		if c.boxes == nil {
			c.boxes = map[string]boxDesignsEntry{}
		}
		c.boxes[key] = e
	}
	return e.designs, e.err
}

// buildBoxDesigns builds the box designs D^x_κ for every kernel element
// node (Definition 19): the target is π(κ(x)) = ∪_{ã∈κ(x)} π(ã), the
// kernel box has one set position κ(y) per element child y and one
// function slot per function child.
func (d *EDTDDesign) buildBoxDesigns(norm *schema.EDTD, kappa Kappa) ([]*NodeDesign, error) {
	funcIdx := map[string]int{}
	for i, f := range d.Kernel.Funcs() {
		funcIdx[f] = i
	}
	var out []*NodeDesign
	var err error
	d.Kernel.Tree().Walk(func(n *xmltree.Tree, anc []string) bool {
		if d.Kernel.IsFunc(n.Label) {
			return true
		}
		names := kappa[n]
		if len(names) == 0 {
			err = fmt.Errorf("core: κ undefined at node %s", n.Label)
			return false
		}
		var parts []*strlang.NFA
		for _, name := range names {
			parts = append(parts, norm.Rule(name).Lang())
		}
		target := strlang.UnionAll(parts...)
		var boxes []strlang.Box
		var funcs []string
		var idx []int
		boxes = append(boxes, strlang.Box{})
		for _, c := range n.Children {
			if d.Kernel.IsFunc(c.Label) {
				funcs = append(funcs, c.Label)
				idx = append(idx, funcIdx[c.Label])
				boxes = append(boxes, strlang.Box{})
			} else {
				last := &boxes[len(boxes)-1]
				*last = append(*last, append([]strlang.Symbol(nil), kappa[c]...))
			}
		}
		kb, kbErr := axml.NewKernelBox(boxes, funcs)
		if kbErr != nil {
			err = kbErr
			return false
		}
		bd := NewBoxDesign(target, kb)
		bd.AllowTrivialTypes = d.AllowTrivialTypes
		out = append(out, &NodeDesign{
			Path:    append([]string(nil), anc...),
			Witness: fmt.Sprintf("{%v}", names),
			Design:  &WordDesign{BoxDesign: *bd},
			FuncIdx: idx,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PerfectKappa builds the κ of Corollary 4.16 top-down: κ(root) is the
// start set matching the root label; for a node x with κ(x) known, the
// children's sets are read off the alphabet of [r(x)] ∩ [τ(x)] with
// position-tagged symbols. A nil result means some node gets an empty set,
// so no sound typing (hence no perfect typing) exists.
func (d *EDTDDesign) PerfectKappa() (Kappa, error) {
	kappa, err := d.perfectKappa()
	return kappa.clone(), err
}

// perfectKappa returns the design's own perfect κ, built on first use.
func (d *EDTDDesign) perfectKappa() (Kappa, error) {
	c := d.cache()
	if !c.perfectDone {
		kappa, err := d.buildPerfectKappa()
		if err != nil {
			return nil, err
		}
		c.perfectKappa, c.perfectDone = kappa, true
	}
	return c.perfectKappa, nil
}

func (d *EDTDDesign) buildPerfectKappa() (Kappa, error) {
	norm, err := d.Normalized()
	if err != nil {
		return nil, err
	}
	kappa := Kappa{}
	root := d.Kernel.Tree()
	var starts []string
	for _, s := range norm.Starts {
		if norm.Elem(s) == root.Label {
			starts = append(starts, s)
		}
	}
	if len(starts) == 0 {
		return nil, nil
	}
	kappa[root] = starts
	var rec func(n *xmltree.Tree) bool
	rec = func(n *xmltree.Tree) bool {
		if len(n.Children) == 0 {
			return true
		}
		// r(x): position-tagged box-with-stars; τ(x): π(κ(x)) with symbols
		// expanded to all position tags.
		m := len(n.Children)
		tag := func(name string, j int) string { return fmt.Sprintf("%s|%d", name, j) }
		rx := strlang.EpsLang()
		for j, c := range n.Children {
			var step *strlang.NFA
			if d.Kernel.IsFunc(c.Label) {
				// Any sequence of names, all tagged j.
				var syms []strlang.Symbol
				for _, name := range norm.SpecializedNames() {
					syms = append(syms, tag(name, j))
				}
				step = strlang.Star(strlang.SetLang(syms))
			} else {
				var syms []strlang.Symbol
				for _, name := range norm.Specializations(c.Label) {
					syms = append(syms, tag(name, j))
				}
				if len(syms) == 0 {
					return false
				}
				step = strlang.SetLang(syms)
			}
			rx = strlang.Concat(rx, step)
		}
		var parts []*strlang.NFA
		for _, name := range kappa[n] {
			parts = append(parts, norm.Rule(name).Lang())
		}
		tauX := strlang.UnionAll(parts...)
		// Expand each symbol of τ(x) to all position tags.
		expanded := expandTags(tauX, m, tag)
		inter := strlang.Intersect(rx, expanded)
		useful := map[string]bool{}
		for _, s := range inter.UsefulSymbols() {
			useful[s] = true
		}
		for j, c := range n.Children {
			if d.Kernel.IsFunc(c.Label) {
				continue
			}
			var set []string
			for _, name := range norm.Specializations(c.Label) {
				if useful[tag(name, j)] {
					set = append(set, name)
				}
			}
			if len(set) == 0 {
				return false
			}
			sort.Strings(set)
			kappa[c] = set
		}
		for _, c := range n.Children {
			if !d.Kernel.IsFunc(c.Label) && !rec(c) {
				return false
			}
		}
		return true
	}
	if !rec(root) {
		return nil, nil
	}
	return kappa, nil
}

// expandTags rewrites an NFA over names into one over position-tagged
// names, duplicating each transition for all m positions.
func expandTags(nfa *strlang.NFA, m int, tag func(string, int) string) *strlang.NFA {
	out := strlang.NewNFA()
	for q := 1; q < nfa.NumStates(); q++ {
		out.AddState()
	}
	out.SetStart(nfa.Start())
	for q := range nfa.Finals().All() {
		out.MarkFinal(q)
	}
	nfa.EachTransition(func(from int, s strlang.Symbol, to int) {
		for j := 0; j < m; j++ {
			out.AddTransition(from, tag(s, j), to)
		}
	})
	for q := 0; q < nfa.NumStates(); q++ {
		for _, t := range nfa.EpsSucc(q) {
			out.AddEps(q, int(t))
		}
	}
	return out
}

// edtdTypeFor wraps a word language over the normalized names as the EDTD
// type of a function.
func edtdTypeFor(norm *schema.EDTD, i int, lang *strlang.NFA) *schema.EDTD {
	e := norm.Clone()
	root := freshRoot(e, i)
	e.Starts = []string{root}
	e.Names[root] = root
	e.Rules[root] = schema.NewContentNFA(lang)
	return e
}

// typingFromBoxWords assembles per-node box word typings into a tree
// typing over the normalized type.
func (d *EDTDDesign) typingFromBoxWords(norm *schema.EDTD, designs []*NodeDesign, perNode []WordTyping) Typing {
	wt := combineWordTypings(d.Kernel.NumFuncs(), designs, perNode)
	out := make(Typing, len(wt))
	for i, lang := range wt {
		out[i] = edtdTypeFor(norm, i, lang)
	}
	return out
}

// verifyLocal composes the typing and checks T(τn) ≡ τ.
func (d *EDTDDesign) verifyLocal(typing Typing) bool {
	comp, err := Compose(d.Kernel, typing)
	if err != nil {
		return false
	}
	return d.equivalentToType(comp)
}

// ExistsPerfect decides ∃-perf[R-EDTD] (Corollary 4.16): build the perfect
// κ, require a perfect typing for every box design, and verify the
// combination.
func (d *EDTDDesign) ExistsPerfect() (Typing, bool, error) {
	norm, err := d.Normalized()
	if err != nil {
		return nil, false, err
	}
	kappa, err := d.perfectKappa()
	if err != nil {
		return nil, false, err
	}
	if kappa == nil {
		return nil, false, nil
	}
	designs, err := d.boxDesigns(norm, kappa)
	if err != nil {
		return nil, false, err
	}
	perNode := make([]WordTyping, len(designs))
	for i, nd := range designs {
		wt, ok := nd.Design.PerfectTyping()
		if !ok {
			return nil, false, nil
		}
		perNode[i] = wt
	}
	typing := d.typingFromBoxWords(norm, designs, perNode)
	if !d.verifyLocal(typing) {
		return nil, false, nil
	}
	return typing, true, nil
}

// IsPerfect decides perf[R-EDTD] (Theorem 7.9): the perfect typing is
// computed and compared componentwise.
func (d *EDTDDesign) IsPerfect(typing Typing) (bool, error) {
	perfect, ok, err := d.ExistsPerfect()
	if err != nil || !ok {
		return false, err
	}
	return EquivTyping(typing, perfect), nil
}

// IsLocal decides loc[R-EDTD] (Theorem 4.19): T(τn) ≡ τ.
func (d *EDTDDesign) IsLocal(typing Typing) (bool, error) {
	comp, err := Compose(d.Kernel, typing)
	if err != nil {
		return false, err
	}
	return d.equivalentToType(comp), nil
}

// allKappas returns every κ (nonempty subsets of Σ̃d(lab(x)) per element
// node), enumerated on first use. Exponential, as the NP^C oracle machine
// of Corollary 4.14 requires.
func (d *EDTDDesign) allKappas(norm *schema.EDTD) []Kappa {
	c := d.cache()
	if c.kappas == nil {
		c.kappas = enumerateKappas(norm, d.elementNodes())
	}
	return c.kappas
}

func enumerateKappas(norm *schema.EDTD, nodes []*xmltree.Tree) []Kappa {
	options := make([][][]string, len(nodes))
	for i, n := range nodes {
		specs := norm.Specializations(n.Label)
		var subsets [][]string
		for mask := 1; mask < 1<<len(specs); mask++ {
			var set []string
			for b := range specs {
				if mask&(1<<b) != 0 {
					set = append(set, specs[b])
				}
			}
			subsets = append(subsets, set)
		}
		if len(subsets) == 0 {
			return []Kappa{}
		}
		options[i] = subsets
	}
	var out []Kappa
	choice := make([]int, len(nodes))
	for {
		kappa := Kappa{}
		for i, n := range nodes {
			kappa[n] = options[i][choice[i]]
		}
		out = append(out, kappa)
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < len(options[i]) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			return out
		}
	}
}

// ExistsLocal decides ∃-loc[R-EDTD] (Corollary 4.14): guess κ, solve the
// box designs, verify the combination.
func (d *EDTDDesign) ExistsLocal() (Typing, bool, error) {
	if typing, ok, err := d.ExistsPerfect(); err != nil || ok {
		return typing, ok, err
	}
	norm, err := d.Normalized()
	if err != nil {
		return nil, false, err
	}
	for _, kappa := range d.allKappas(norm) {
		designs, err := d.boxDesigns(norm, kappa)
		if err != nil {
			continue
		}
		perNode := make([]WordTyping, len(designs))
		ok := true
		for i, nd := range designs {
			wt, found := nd.Design.LocalTyping()
			if !found {
				ok = false
				break
			}
			perNode[i] = wt
		}
		if !ok {
			continue
		}
		typing := d.typingFromBoxWords(norm, designs, perNode)
		if d.verifyLocal(typing) {
			return typing, true, nil
		}
	}
	return nil, false, nil
}

// MaximalLocalTypings enumerates the maximal local typings of the design:
// per κ, the cross products of per-node maximal local box typings that
// verify locality; dominated typings (componentwise tree-language
// inclusion) are removed across κ's.
func (d *EDTDDesign) MaximalLocalTypings() ([]Typing, error) {
	norm, err := d.Normalized()
	if err != nil {
		return nil, err
	}
	var candidates []Typing
	for _, kappa := range d.allKappas(norm) {
		designs, err := d.boxDesigns(norm, kappa)
		if err != nil {
			continue
		}
		perNode := make([][]WordTyping, len(designs))
		ok := true
		for i, nd := range designs {
			perNode[i] = nd.Design.MaximalLocalTypings()
			if len(perNode[i]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		choice := make([]int, len(designs))
		for {
			pick := make([]WordTyping, len(designs))
			for i := range designs {
				pick[i] = perNode[i][choice[i]]
			}
			typing := d.typingFromBoxWords(norm, designs, pick)
			if d.verifyLocal(typing) {
				candidates = append(candidates, typing)
			}
			i := 0
			for ; i < len(choice); i++ {
				choice[i]++
				if choice[i] < len(perNode[i]) {
					break
				}
				choice[i] = 0
			}
			if i == len(choice) {
				break
			}
		}
	}
	// Remove duplicates and dominated candidates.
	var out []Typing
	for i, t := range candidates {
		keep := true
		for j, u := range candidates {
			if i == j {
				continue
			}
			if LeqTyping(t, u) && !EquivTyping(t, u) {
				keep = false
				break
			}
			if j < i && EquivTyping(t, u) {
				keep = false // duplicate, keep the first
				break
			}
		}
		if keep {
			out = append(out, t)
		}
	}
	return out, nil
}

// ExistsMaximalLocal decides ∃-ml[R-EDTD].
func (d *EDTDDesign) ExistsMaximalLocal() (Typing, bool, error) {
	ts, err := d.MaximalLocalTypings()
	if err != nil {
		return nil, false, err
	}
	if len(ts) == 0 {
		return nil, false, nil
	}
	return ts[0], true, nil
}

// IsMaximalLocal decides ml[R-EDTD] (Theorem 7.10's exhaustive check):
// the typing is local and equivalent to one of the maximal local typings.
func (d *EDTDDesign) IsMaximalLocal(typing Typing) (bool, error) {
	local, err := d.IsLocal(typing)
	if err != nil || !local {
		return false, err
	}
	ts, err := d.MaximalLocalTypings()
	if err != nil {
		return false, err
	}
	for _, t := range ts {
		if EquivTyping(typing, t) {
			return true, nil
		}
	}
	return false, nil
}
