package core

import (
	"fmt"
	"slices"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// This file implements the top-down design problems for R-DTDs and
// R-SDTDs (Sections 4.1 and 4.2): by Theorems 4.2 and 4.5 the tree
// problems reduce to one string design per element node of the kernel —
// ⟨π(lab(x)), child-str(x)⟩ for DTDs, and ⟨π(ã), w^x⟩ over witnesses for
// SDTDs.

// NodeDesign is the string design induced at one kernel element node.
type NodeDesign struct {
	// Path locates the node (labels from the root, inclusive).
	Path []string
	// Witness is the specialized name assigned to the node (for DTDs the
	// element name itself).
	Witness string
	// Design is the word design ⟨content model, kernel child string⟩.
	Design *WordDesign
	// FuncIdx maps the design's functions to global function indices
	// (0-based positions in Kernel.Funcs()).
	FuncIdx []int
}

// DTDDesign is a top-down R-DTD design ⟨τ, T⟩ (Definition 10).
//
// The per-node string designs are built on first use and reused by every
// procedure later called on the same value, together with what each of
// them derives (see BoxDesign); they are rebuilt when Type or Kernel is
// replaced or AllowTrivialTypes changes. A design is not safe for
// concurrent use, and Type and Kernel must not be modified in place after
// first use.
type DTDDesign struct {
	Type   *schema.DTD
	Kernel *axml.Kernel
	// AllowTrivialTypes is propagated to the induced word designs (see
	// BoxDesign.AllowTrivialTypes).
	AllowTrivialTypes bool

	nodes nodeDesignCache
}

// SDTDDesign is a top-down R-SDTD design ⟨τ, T⟩. Type must be single-type.
//
// It caches its per-node string designs like DTDDesign, under the same
// rules: not safe for concurrent use, and Type and Kernel must not be
// modified in place after first use.
type SDTDDesign struct {
	Type              *schema.EDTD
	Kernel            *axml.Kernel
	AllowTrivialTypes bool

	nodes nodeDesignCache
}

// nodeDesignCache holds the per-node string designs of a DTD or SDTD
// design together with the fields they were built from.
type nodeDesignCache struct {
	built        bool
	typ          any // *schema.DTD or *schema.EDTD
	kernel       *axml.Kernel
	allowTrivial bool
	designs      []*NodeDesign
	err          error
}

// get returns the cached designs, building them when the key differs from
// the one they were built under.
func (c *nodeDesignCache) get(typ any, kernel *axml.Kernel, allowTrivial bool,
	build func() ([]*NodeDesign, error)) ([]*NodeDesign, error) {
	if !c.built || c.typ != typ || c.kernel != kernel || c.allowTrivial != allowTrivial {
		designs, err := build()
		*c = nodeDesignCache{built: true, typ: typ, kernel: kernel, allowTrivial: allowTrivial, designs: designs, err: err}
	}
	return c.designs, c.err
}

// NodeDesigns returns the string designs of Theorem 4.2, one per element
// node of the kernel, in document order. The designs are the ones the
// design's procedures use, so what they derive is shared with them.
func (d *DTDDesign) NodeDesigns() []*NodeDesign {
	return slices.Clone(d.nodeDesigns())
}

func (d *DTDDesign) nodeDesigns() []*NodeDesign {
	designs, _ := d.nodes.get(d.Type, d.Kernel, d.AllowTrivialTypes, func() ([]*NodeDesign, error) {
		return d.buildNodeDesigns(), nil
	})
	return designs
}

func (d *DTDDesign) buildNodeDesigns() []*NodeDesign {
	var out []*NodeDesign
	funcIdx := map[string]int{}
	for i, f := range d.Kernel.Funcs() {
		funcIdx[f] = i
	}
	d.Kernel.Tree().Walk(func(n *xmltree.Tree, anc []string) bool {
		if d.Kernel.IsFunc(n.Label) {
			return true
		}
		ks, idx := childKernelString(d.Kernel, n, func(c *xmltree.Tree) string { return c.Label }, funcIdx)
		wd := NewWordDesign(d.Type.Rule(n.Label).Lang(), ks)
		wd.AllowTrivialTypes = d.AllowTrivialTypes
		out = append(out, &NodeDesign{
			Path:    append([]string(nil), anc...),
			Witness: n.Label,
			Design:  wd,
			FuncIdx: idx,
		})
		return true
	})
	return out
}

// childKernelString builds the kernel string of a node's children, mapping
// element children through name and keeping functions.
func childKernelString(k *axml.Kernel, n *xmltree.Tree, name func(*xmltree.Tree) string,
	funcIdx map[string]int) (*axml.KernelString, []int) {
	words := [][]strlang.Symbol{nil}
	var funcs []string
	var idx []int
	for _, c := range n.Children {
		if k.IsFunc(c.Label) {
			funcs = append(funcs, c.Label)
			idx = append(idx, funcIdx[c.Label])
			words = append(words, nil)
		} else {
			words[len(words)-1] = append(words[len(words)-1], name(c))
		}
	}
	ks, err := axml.NewKernelString(words, funcs)
	if err != nil {
		panic(err) // structurally impossible
	}
	return ks, idx
}

// assignWitnesses computes the unique witness of every kernel element node
// under a single-type EDTD (Definition 18). It fails when the kernel's
// fixed structure does not fit the type's vertical language — in which
// case no sound typing exists at all.
func assignWitnesses(e *schema.EDTD, k *axml.Kernel) (map[*xmltree.Tree]string, error) {
	if ok, el := e.IsSingleType(); !ok {
		return nil, fmt.Errorf("core: type is not single-type (element %s)", el)
	}
	root := k.Tree()
	var start string
	found := false
	for _, s := range e.Starts {
		if e.Elem(s) == root.Label {
			start, found = s, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: kernel root %s matches no start of the type", root.Label)
	}
	witness := map[*xmltree.Tree]string{root: start}
	var rec func(n *xmltree.Tree) error
	rec = func(n *xmltree.Tree) error {
		w := witness[n]
		table := map[string]string{}
		for _, b := range e.Rule(w).UsefulSymbols() {
			table[e.Elem(b)] = b
		}
		for _, c := range n.Children {
			if k.IsFunc(c.Label) {
				continue
			}
			cw, ok := table[c.Label]
			if !ok {
				return fmt.Errorf("core: kernel node %s cannot occur under witness %s", c.Label, w)
			}
			witness[c] = cw
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(root); err != nil {
		return nil, err
	}
	return witness, nil
}

// NodeDesigns returns the induced string designs of Definition 18 /
// Theorem 4.5, or an error when the kernel does not fit the type's
// vertical language. The designs are the ones the design's procedures use,
// so what they derive is shared with them.
func (d *SDTDDesign) NodeDesigns() ([]*NodeDesign, error) {
	designs, err := d.nodeDesigns()
	return slices.Clone(designs), err
}

func (d *SDTDDesign) nodeDesigns() ([]*NodeDesign, error) {
	return d.nodes.get(d.Type, d.Kernel, d.AllowTrivialTypes, d.buildNodeDesigns)
}

func (d *SDTDDesign) buildNodeDesigns() ([]*NodeDesign, error) {
	witness, err := assignWitnesses(d.Type, d.Kernel)
	if err != nil {
		return nil, err
	}
	funcIdx := map[string]int{}
	for i, f := range d.Kernel.Funcs() {
		funcIdx[f] = i
	}
	var out []*NodeDesign
	d.Kernel.Tree().Walk(func(n *xmltree.Tree, anc []string) bool {
		if d.Kernel.IsFunc(n.Label) {
			return true
		}
		ks, idx := childKernelString(d.Kernel, n, func(c *xmltree.Tree) string { return witness[c] }, funcIdx)
		wd := NewWordDesign(d.Type.Rule(witness[n]).Lang(), ks)
		wd.AllowTrivialTypes = d.AllowTrivialTypes
		out = append(out, &NodeDesign{
			Path:    append([]string(nil), anc...),
			Witness: witness[n],
			Design:  wd,
			FuncIdx: idx,
		})
		return true
	})
	return out, nil
}

// combineWordTypings assembles per-node word typings into a global word
// typing indexed by the kernel's functions.
func combineWordTypings(n int, designs []*NodeDesign, perNode []WordTyping) WordTyping {
	out := make(WordTyping, n)
	for d, nd := range designs {
		for j, gi := range nd.FuncIdx {
			out[gi] = perNode[d][j]
		}
	}
	return out
}

// freshRoot picks a root name of the form rootN not clashing with e's
// specialized names.
func freshRoot(e *schema.EDTD, i int) string {
	used := map[string]bool{}
	for _, n := range e.SpecializedNames() {
		used[n] = true
	}
	name := fmt.Sprintf("root%d", i+1)
	for used[name] {
		name += "'"
	}
	return name
}

// dtdTypeFor wraps a word language as the DTD type of a function: the
// rules of τ plus a fresh root rule (Theorem 4.2's construction).
func dtdTypeFor(tau *schema.DTD, i int, lang *strlang.NFA) *schema.EDTD {
	e := tau.ToEDTD()
	root := freshRoot(e, i)
	e.Starts = []string{root}
	e.Names[root] = root
	e.Rules[root] = schema.NewContentNFA(lang)
	return e
}

// sdtdTypeFor wraps a word language over Σ̃ as the SDTD type of a function
// (Theorem 4.5's construction).
func sdtdTypeFor(tau *schema.EDTD, i int, lang *strlang.NFA) *schema.EDTD {
	e := tau.Clone()
	root := freshRoot(e, i)
	e.Starts = []string{root}
	e.Names[root] = root
	e.Rules[root] = schema.NewContentNFA(lang)
	return e
}

// TypingFromWords converts a global word typing into the tree typing of
// Theorem 4.2.
func (d *DTDDesign) TypingFromWords(wt WordTyping) Typing {
	out := make(Typing, len(wt))
	for i, lang := range wt {
		out[i] = dtdTypeFor(d.Type, i, lang)
	}
	return out
}

// TypingFromWords converts a global word typing (over Σ̃) into the tree
// typing of Theorem 4.5.
func (d *SDTDDesign) TypingFromWords(wt WordTyping) Typing {
	out := make(Typing, len(wt))
	for i, lang := range wt {
		out[i] = sdtdTypeFor(d.Type, i, lang)
	}
	return out
}

// solveNodes runs a per-node word-problem solver and combines the
// results; ok is false as soon as one node fails.
func solveNodes(n int, designs []*NodeDesign,
	solve func(*WordDesign) (WordTyping, bool)) (WordTyping, bool) {
	perNode := make([]WordTyping, len(designs))
	for i, nd := range designs {
		wt, ok := solve(nd.Design)
		if !ok {
			return nil, false
		}
		perNode[i] = wt
	}
	return combineWordTypings(n, designs, perNode), true
}

// ExistsLocal decides ∃-loc[R-DTD] (Corollary 4.3) and returns a local
// typing when one exists.
func (d *DTDDesign) ExistsLocal() (Typing, bool) {
	wt, ok := solveNodes(d.Kernel.NumFuncs(), d.nodeDesigns(),
		func(wd *WordDesign) (WordTyping, bool) { return wd.LocalTyping() })
	if !ok {
		return nil, false
	}
	return d.TypingFromWords(wt), true
}

// ExistsPerfect decides ∃-perf[R-DTD] and returns the perfect typing when
// it exists.
func (d *DTDDesign) ExistsPerfect() (Typing, bool) {
	wt, ok := solveNodes(d.Kernel.NumFuncs(), d.nodeDesigns(),
		func(wd *WordDesign) (WordTyping, bool) { return wd.PerfectTyping() })
	if !ok {
		return nil, false
	}
	return d.TypingFromWords(wt), true
}

// MaximalLocalWordTypings enumerates the maximal local typings of the
// design as global word typings (the cross product of the per-node
// enumerations).
func (d *DTDDesign) MaximalLocalWordTypings() []WordTyping {
	return crossMaximal(d.Kernel.NumFuncs(), d.nodeDesigns())
}

// ExistsMaximalLocal decides ∃-ml[R-DTD].
func (d *DTDDesign) ExistsMaximalLocal() (Typing, bool) {
	ts := d.MaximalLocalWordTypings()
	if len(ts) == 0 {
		return nil, false
	}
	return d.TypingFromWords(ts[0]), true
}

func crossMaximal(n int, designs []*NodeDesign) []WordTyping {
	perNode := make([][]WordTyping, len(designs))
	for i, nd := range designs {
		perNode[i] = nd.Design.MaximalLocalTypings()
		if len(perNode[i]) == 0 {
			return nil
		}
	}
	var out []WordTyping
	choice := make([]int, len(designs))
	for {
		pick := make([]WordTyping, len(designs))
		for i := range designs {
			pick[i] = perNode[i][choice[i]]
		}
		out = append(out, combineWordTypings(n, designs, pick))
		// Next choice vector.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < len(perNode[i]) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			return out
		}
	}
}

// ExistsLocal decides ∃-loc[R-SDTD] (Corollary 4.6).
func (d *SDTDDesign) ExistsLocal() (Typing, bool) {
	designs, err := d.nodeDesigns()
	if err != nil {
		return nil, false
	}
	wt, ok := solveNodes(d.Kernel.NumFuncs(), designs,
		func(wd *WordDesign) (WordTyping, bool) { return wd.LocalTyping() })
	if !ok {
		return nil, false
	}
	return d.TypingFromWords(wt), true
}

// ExistsPerfect decides ∃-perf[R-SDTD].
func (d *SDTDDesign) ExistsPerfect() (Typing, bool) {
	designs, err := d.nodeDesigns()
	if err != nil {
		return nil, false
	}
	wt, ok := solveNodes(d.Kernel.NumFuncs(), designs,
		func(wd *WordDesign) (WordTyping, bool) { return wd.PerfectTyping() })
	if !ok {
		return nil, false
	}
	return d.TypingFromWords(wt), true
}

// MaximalLocalWordTypings enumerates the maximal local typings as global
// word typings over Σ̃.
func (d *SDTDDesign) MaximalLocalWordTypings() []WordTyping {
	designs, err := d.nodeDesigns()
	if err != nil {
		return nil
	}
	return crossMaximal(d.Kernel.NumFuncs(), designs)
}

// ExistsMaximalLocal decides ∃-ml[R-SDTD].
func (d *SDTDDesign) ExistsMaximalLocal() (Typing, bool) {
	ts := d.MaximalLocalWordTypings()
	if len(ts) == 0 {
		return nil, false
	}
	return d.TypingFromWords(ts[0]), true
}

// IsLocal decides loc[R-DTD] for a D-consistent typing: typeT(τn) ≡ τ.
func (d *DTDDesign) IsLocal(typing Typing) (bool, error) {
	res, err := ConsDTD(d.Kernel, typing, schema.KindNFA)
	if err != nil {
		return false, err
	}
	if !res.Consistent {
		return false, nil
	}
	ok, _ := schema.EquivalentDTD(res.DTD, d.Type)
	return ok, nil
}

// IsLocal decides loc[R-SDTD] for a D-consistent typing.
func (d *SDTDDesign) IsLocal(typing Typing) (bool, error) {
	res, err := ConsSDTD(d.Kernel, typing, schema.KindNFA)
	if err != nil {
		return false, err
	}
	if !res.Consistent {
		return false, nil
	}
	ok, _ := schema.EquivalentSDTD(res.EDTD, d.Type)
	return ok, nil
}

// wordTypingOf extracts the per-node word typings from a tree typing: the
// root content of each τi, projected by proj.
func wordTypingOf(typing Typing, proj func(i int, lang *strlang.NFA) *strlang.NFA) WordTyping {
	out := make(WordTyping, len(typing))
	for i, tau := range typing {
		lang := RootContent(tau)
		if proj != nil {
			lang = proj(i, lang)
		}
		out[i] = lang
	}
	return out
}

// IsMaximalLocal decides ml[R-DTD]: local plus per-node word maximality
// (Corollary 4.3). The typing's root contents are projected to element
// names.
func (d *DTDDesign) IsMaximalLocal(typing Typing) (bool, error) {
	local, err := d.IsLocal(typing)
	if err != nil || !local {
		return false, err
	}
	wt := wordTypingOf(typing, func(i int, lang *strlang.NFA) *strlang.NFA {
		return lang.MapSymbols(typing[i].Elem)
	})
	return d.checkNodeMaximality(wt)
}

func (d *DTDDesign) checkNodeMaximality(wt WordTyping) (bool, error) {
	for _, nd := range d.nodeDesigns() {
		local := make(WordTyping, len(nd.FuncIdx))
		for j, gi := range nd.FuncIdx {
			local[j] = wt[gi]
		}
		ok, err := nd.Design.MaximalSound(local)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// IsPerfect decides perf[R-DTD]: local plus per-node word perfection.
func (d *DTDDesign) IsPerfect(typing Typing) (bool, error) {
	local, err := d.IsLocal(typing)
	if err != nil || !local {
		return false, err
	}
	wt := wordTypingOf(typing, func(i int, lang *strlang.NFA) *strlang.NFA {
		return lang.MapSymbols(typing[i].Elem)
	})
	for _, nd := range d.nodeDesigns() {
		local := make(WordTyping, len(nd.FuncIdx))
		for j, gi := range nd.FuncIdx {
			local[j] = wt[gi]
		}
		if !nd.Design.IsPerfect(local) {
			return false, nil
		}
	}
	return true, nil
}

// IsMaximalLocal decides ml[R-SDTD].
func (d *SDTDDesign) IsMaximalLocal(typing Typing) (bool, error) {
	local, err := d.IsLocal(typing)
	if err != nil || !local {
		return false, err
	}
	designs, err := d.nodeDesigns()
	if err != nil {
		return false, err
	}
	wt := wordTypingOf(typing, nil)
	for _, nd := range designs {
		local := make(WordTyping, len(nd.FuncIdx))
		for j, gi := range nd.FuncIdx {
			local[j] = wt[gi]
		}
		ok, err := nd.Design.MaximalSound(local)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// IsPerfect decides perf[R-SDTD].
func (d *SDTDDesign) IsPerfect(typing Typing) (bool, error) {
	local, err := d.IsLocal(typing)
	if err != nil || !local {
		return false, err
	}
	designs, err := d.nodeDesigns()
	if err != nil {
		return false, err
	}
	wt := wordTypingOf(typing, nil)
	for _, nd := range designs {
		local := make(WordTyping, len(nd.FuncIdx))
		for j, gi := range nd.FuncIdx {
			local[j] = wt[gi]
		}
		if !nd.Design.IsPerfect(local) {
			return false, nil
		}
	}
	return true, nil
}
