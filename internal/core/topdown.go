package core

import (
	"fmt"
	"slices"
	"strconv"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/uta"
	"dxml/internal/xmltree"
)

// This file implements the top-down design problems for trees (Section 4)
// as one engine. Every class reduces the tree problem to one box design
// D^x_κ per kernel element node under an assignment κ of specialized names
// to nodes (Definition 19, Corollary 4.14). The classes differ only in
// where κ comes from, in the type the per-function types are cloned from,
// and in whether a combination of per-node typings must be verified again:
//   - R-DTDs (Theorem 4.2): κ(x) = {lab(x)}, types are cloned from τ;
//   - R-SDTDs (Theorem 4.5): κ(x) is the unique witness of x
//     (Definition 18), types are cloned from τ;
//   - R-EDTDs (Section 4.3, edtd_topdown.go): κ ranges over the κ space of
//     the normalized type or is its perfect κ, types are cloned from the
//     normalized type, and every combination is verified by composition.
//
// At a fixed singleton κ the box design is the string design ⟨π(ã), w^x⟩
// and per-node locality is locality, so Theorems 4.2 and 4.5 are
// Corollary 4.14 at one κ.

// NodeDesign is the design induced at one kernel element node.
type NodeDesign struct {
	// Path locates the node (labels from the root, inclusive).
	Path []string
	// Witness is the specialized name assigned to the node (for DTDs the
	// element name itself; for EDTDs the set κ(x), printed).
	Witness string
	// Design is the node's design: the word design ⟨content model, kernel
	// child string⟩ for DTDs and SDTDs, the box design D^x_κ (with no
	// KernelString) for EDTDs.
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

	derived *topDown
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

	derived *topDown
}

// Kappa assigns to each kernel element node a nonempty set of specialized
// names (Definition 19), keyed by node pointer.
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

// topDown is the engine of one design value: the fields it was built
// from, what its class supplies, and what it derives on first use.
type topDown struct {
	typ          any // *schema.DTD or *schema.EDTD
	kernel       *axml.Kernel
	allowTrivial bool

	// base is the type per-function types are cloned from (for EDTDs the
	// normalized type, set on first use).
	base *schema.EDTD
	// singleton holds for DTDs and SDTDs: every κ set is one name, each
	// node design is the string design over that name's own content
	// automaton, and per-node locality is locality, so a combination is
	// not verified again. For EDTDs node designs are box designs over
	// π(κ(x)) = ∪_{ã∈κ(x)} π(ã) and every combination is verified.
	singleton bool
	// byLabel holds for DTDs, whose κ names are element names: the root
	// contents of a typing passed in are read through µ.
	byLabel bool
	// kappaOf computes the class's own κ: the labels, the witnesses, or
	// the perfect κ (nil when there is none).
	kappaOf func() (Kappa, error)

	own      Kappa
	ownErr   error
	ownDone  bool
	nodes    []*xmltree.Tree          // the kernel's element nodes, the κ key order
	designs  map[string][]*NodeDesign // node designs by kappaKey
	typeNUTA *uta.NUTA                // EDTDs: the type's tree automaton
	kappas   []Kappa                  // EDTDs: the κ space
}

// derive returns the engine kept in *p, replacing it by a fresh one that
// init sets up when typ, k or allowTrivial differs from what it was built
// from.
func derive(p **topDown, typ any, k *axml.Kernel, allowTrivial bool, init func(*topDown)) *topDown {
	if t := *p; t != nil && t.typ == typ && t.kernel == k && t.allowTrivial == allowTrivial {
		return t
	}
	t := &topDown{typ: typ, kernel: k, allowTrivial: allowTrivial, designs: map[string][]*NodeDesign{}}
	init(t)
	*p = t
	return t
}

func (d *DTDDesign) engine() *topDown {
	return derive(&d.derived, d.Type, d.Kernel, d.AllowTrivialTypes, func(t *topDown) {
		t.base, t.singleton, t.byLabel = d.Type.ToEDTD(), true, true
		t.kappaOf = func() (Kappa, error) {
			kappa := Kappa{}
			for _, n := range t.elementNodes() {
				kappa[n] = []string{n.Label}
			}
			return kappa, nil
		}
	})
}

func (d *SDTDDesign) engine() *topDown {
	typ := d.Type
	return derive(&d.derived, typ, d.Kernel, d.AllowTrivialTypes, func(t *topDown) {
		t.base, t.singleton = typ, true
		t.kappaOf = func() (Kappa, error) { return assignWitnesses(typ, t.kernel) }
	})
}

// ownKappa returns the class's own κ, computed on first use.
func (t *topDown) ownKappa() (Kappa, error) {
	if !t.ownDone {
		t.own, t.ownErr = t.kappaOf()
		t.ownDone = true
	}
	return t.own, t.ownErr
}

// elementNodes lists the kernel's element nodes in document order, on
// first use.
func (t *topDown) elementNodes() []*xmltree.Tree {
	if t.nodes == nil {
		t.kernel.Tree().Walk(func(n *xmltree.Tree, _ []string) bool {
			if !t.kernel.IsFunc(n.Label) {
				t.nodes = append(t.nodes, n)
			}
			return true
		})
	}
	return t.nodes
}

// kappaKey encodes κ as its name sets in elementNodes order, each set and
// each name prefixed by its length, so distinct κ's get distinct keys.
func (t *topDown) kappaKey(kappa Kappa) string {
	var key []byte
	for _, n := range t.elementNodes() {
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

// nodeDesigns returns the node designs at κ, built on first use for that
// κ.
func (t *topDown) nodeDesigns(kappa Kappa) []*NodeDesign {
	key := t.kappaKey(kappa)
	nds, ok := t.designs[key]
	if !ok {
		nds = t.buildNodeDesigns(kappa)
		t.designs[key] = nds
	}
	return nds
}

// buildNodeDesigns builds the design D^x_κ of every kernel element node x,
// in document order (Definition 19): its kernel box has one position κ(y)
// per element child y and one slot per function child, its target is
// π(κ(x)). At a singleton κ the box is the kernel string w^x of Theorems
// 4.2 and 4.5 and the target is the content automaton of the name itself.
func (t *topDown) buildNodeDesigns(kappa Kappa) []*NodeDesign {
	funcIdx := map[string]int{}
	for i, f := range t.kernel.Funcs() {
		funcIdx[f] = i
	}
	var out []*NodeDesign
	t.kernel.Tree().Walk(func(n *xmltree.Tree, anc []string) bool {
		if t.kernel.IsFunc(n.Label) {
			return true
		}
		boxes := []strlang.Box{{}}
		var funcs []string
		var idx []int
		for _, c := range n.Children {
			if t.kernel.IsFunc(c.Label) {
				funcs = append(funcs, c.Label)
				idx = append(idx, funcIdx[c.Label])
				boxes = append(boxes, strlang.Box{})
			} else {
				last := &boxes[len(boxes)-1]
				*last = append(*last, slices.Clone(kappa[c]))
			}
		}
		names := kappa[n]
		wd := &WordDesign{BoxDesign: BoxDesign{
			Kernel:            &axml.KernelBox{Boxes: boxes, Funcs: funcs},
			AllowTrivialTypes: t.allowTrivial,
		}}
		nd := &NodeDesign{Path: slices.Clone(anc), Witness: names[0], Design: wd, FuncIdx: idx}
		if t.singleton {
			wd.Target = t.base.Rule(names[0]).Lang()
			words := make([][]strlang.Symbol, len(boxes))
			for i, box := range boxes {
				for _, set := range box {
					words[i] = append(words[i], set[0])
				}
			}
			wd.KernelString = &axml.KernelString{Words: words, Funcs: funcs}
		} else {
			parts := make([]*strlang.NFA, len(names))
			for i, name := range names {
				parts[i] = t.base.Rule(name).Lang()
			}
			wd.Target = strlang.UnionAll(parts...)
			nd.Witness = fmt.Sprintf("{%v}", names)
		}
		out = append(out, nd)
		return true
	})
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

// typeFor wraps a word language as the type of function i: base under a
// fresh root whose content is lang (the construction of Theorems 4.2 and
// 4.5).
func typeFor(base *schema.EDTD, i int, lang *strlang.NFA) *schema.EDTD {
	e := base.Clone()
	root := freshRoot(e, i)
	e.Starts = []string{root}
	e.Names[root] = root
	e.Rules[root] = schema.NewContentNFA(lang)
	return e
}

// typing converts a global word typing into a tree typing.
func (t *topDown) typing(wt WordTyping) Typing {
	out := make(Typing, len(wt))
	for i, lang := range wt {
		out[i] = typeFor(t.base, i, lang)
	}
	return out
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

// nodeTyping slices the functions of one node out of a global word typing.
func nodeTyping(nd *NodeDesign, wt WordTyping) WordTyping {
	out := make(WordTyping, len(nd.FuncIdx))
	for j, gi := range nd.FuncIdx {
		out[j] = wt[gi]
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

// eachPick calls visit with every pick of one option per position, the
// first position turning fastest, and never when a position has no
// option. visit must not keep pick.
func eachPick[T any](options [][]T, visit func(pick []T)) {
	for _, o := range options {
		if len(o) == 0 {
			return
		}
	}
	choice := make([]int, len(options))
	pick := make([]T, len(options))
	for {
		for i := range options {
			pick[i] = options[i][choice[i]]
		}
		visit(pick)
		i := 0
		for ; i < len(choice); i++ {
			if choice[i]++; choice[i] < len(options[i]) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			return
		}
	}
}

// exists solves one word problem per node design at κ and combines the
// answers into a tree typing; ok is false when some node has no answer,
// or when the combination must be verified and is not local.
func (t *topDown) exists(kappa Kappa, solve func(*WordDesign) (WordTyping, bool)) (Typing, bool) {
	wt, ok := solveNodes(t.kernel.NumFuncs(), t.nodeDesigns(kappa), solve)
	if !ok {
		return nil, false
	}
	typing := t.typing(wt)
	if !t.singleton && !t.verifyLocal(typing) {
		return nil, false
	}
	return typing, true
}

// eachMaximal calls visit with every combination of per-node maximal
// local typings at κ, as a global word typing.
func (t *topDown) eachMaximal(kappa Kappa, visit func(WordTyping)) {
	designs := t.nodeDesigns(kappa)
	perNode := make([][]WordTyping, len(designs))
	for i, nd := range designs {
		if perNode[i] = nd.Design.MaximalLocalTypings(); len(perNode[i]) == 0 {
			return
		}
	}
	eachPick(perNode, func(pick []WordTyping) {
		visit(combineWordTypings(t.kernel.NumFuncs(), designs, pick))
	})
}

// ownDesigns returns the node designs at the class's own κ.
func (t *topDown) ownDesigns() ([]*NodeDesign, error) {
	kappa, err := t.ownKappa()
	if err != nil {
		return nil, err
	}
	return t.nodeDesigns(kappa), nil
}

// existsOwn solves one word problem per node design at the class's own κ;
// ok is false when there is no such κ.
func (t *topDown) existsOwn(solve func(*WordDesign) (WordTyping, bool)) (Typing, bool) {
	kappa, err := t.ownKappa()
	if err != nil || kappa == nil {
		return nil, false
	}
	return t.exists(kappa, solve)
}

// maximalWordTypings enumerates the maximal local typings at the class's
// own κ as global word typings (the cross product of the per-node
// enumerations).
func (t *topDown) maximalWordTypings() []WordTyping {
	kappa, err := t.ownKappa()
	if err != nil {
		return nil
	}
	var out []WordTyping
	t.eachMaximal(kappa, func(wt WordTyping) { out = append(out, wt) })
	return out
}

func (t *topDown) existsMaximalLocal() (Typing, bool) {
	ts := t.maximalWordTypings()
	if len(ts) == 0 {
		return nil, false
	}
	return t.typing(ts[0]), true
}

// verifyNodes decides ml or perf at the class's own κ (Corollaries 4.3
// and 4.6): the typing is local by the class's own test, and every node
// design accepts its slice of the typing's root contents.
func (t *topDown) verifyNodes(typing Typing, isLocal func(Typing) (bool, error),
	accept func(*WordDesign, WordTyping) (bool, error)) (bool, error) {
	if local, err := isLocal(typing); err != nil || !local {
		return false, err
	}
	designs, err := t.ownDesigns()
	if err != nil {
		return false, err
	}
	wt := make(WordTyping, len(typing))
	for i, tau := range typing {
		if wt[i] = RootContent(tau); t.byLabel {
			wt[i] = wt[i].MapSymbols(tau.Elem)
		}
	}
	for _, nd := range designs {
		if ok, err := accept(nd.Design, nodeTyping(nd, wt)); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// isPerfectNode is WordDesign.IsPerfect in the shape verifyNodes takes.
func isPerfectNode(wd *WordDesign, wt WordTyping) (bool, error) { return wd.IsPerfect(wt), nil }

// assignWitnesses computes the unique witness of every kernel element node
// under a single-type EDTD (Definition 18), as a singleton κ. It fails
// when the kernel's fixed structure does not fit the type's vertical
// language — in which case no sound typing exists at all.
func assignWitnesses(e *schema.EDTD, k *axml.Kernel) (Kappa, error) {
	if ok, el := e.IsSingleType(); !ok {
		return nil, fmt.Errorf("core: type is not single-type (element %s)", el)
	}
	root := k.Tree()
	kappa := Kappa{}
	for _, s := range e.Starts {
		if e.Elem(s) == root.Label {
			kappa[root] = []string{s}
			break
		}
	}
	if kappa[root] == nil {
		return nil, fmt.Errorf("core: kernel root %s matches no start of the type", root.Label)
	}
	var rec func(n *xmltree.Tree) error
	rec = func(n *xmltree.Tree) error {
		w := kappa[n][0]
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
			kappa[c] = []string{cw}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(root); err != nil {
		return nil, err
	}
	return kappa, nil
}

// NodeDesigns returns the string designs of Theorem 4.2, one per element
// node of the kernel, in document order. The designs are the ones the
// design's procedures use, so what they derive is shared with them.
func (d *DTDDesign) NodeDesigns() []*NodeDesign {
	designs, _ := d.engine().ownDesigns()
	return slices.Clone(designs)
}

// NodeDesigns returns the induced string designs of Definition 18 /
// Theorem 4.5, or an error when the kernel does not fit the type's
// vertical language. The designs are the ones the design's procedures use,
// so what they derive is shared with them.
func (d *SDTDDesign) NodeDesigns() ([]*NodeDesign, error) {
	designs, err := d.engine().ownDesigns()
	return slices.Clone(designs), err
}

// TypingFromWords converts a global word typing into the tree typing of
// Theorem 4.2.
func (d *DTDDesign) TypingFromWords(wt WordTyping) Typing { return d.engine().typing(wt) }

// TypingFromWords converts a global word typing (over Σ̃) into the tree
// typing of Theorem 4.5.
func (d *SDTDDesign) TypingFromWords(wt WordTyping) Typing { return d.engine().typing(wt) }

// ExistsLocal decides ∃-loc[R-DTD] (Corollary 4.3) and returns a local
// typing when one exists.
func (d *DTDDesign) ExistsLocal() (Typing, bool) {
	return d.engine().existsOwn((*WordDesign).LocalTyping)
}

// ExistsLocal decides ∃-loc[R-SDTD] (Corollary 4.6).
func (d *SDTDDesign) ExistsLocal() (Typing, bool) {
	return d.engine().existsOwn((*WordDesign).LocalTyping)
}

// ExistsPerfect decides ∃-perf[R-DTD] and returns the perfect typing when
// it exists.
func (d *DTDDesign) ExistsPerfect() (Typing, bool) {
	return d.engine().existsOwn((*WordDesign).PerfectTyping)
}

// ExistsPerfect decides ∃-perf[R-SDTD].
func (d *SDTDDesign) ExistsPerfect() (Typing, bool) {
	return d.engine().existsOwn((*WordDesign).PerfectTyping)
}

// MaximalLocalWordTypings enumerates the maximal local typings of the
// design as global word typings (the cross product of the per-node
// enumerations).
func (d *DTDDesign) MaximalLocalWordTypings() []WordTyping { return d.engine().maximalWordTypings() }

// MaximalLocalWordTypings enumerates the maximal local typings as global
// word typings over Σ̃.
func (d *SDTDDesign) MaximalLocalWordTypings() []WordTyping { return d.engine().maximalWordTypings() }

// ExistsMaximalLocal decides ∃-ml[R-DTD].
func (d *DTDDesign) ExistsMaximalLocal() (Typing, bool) { return d.engine().existsMaximalLocal() }

// ExistsMaximalLocal decides ∃-ml[R-SDTD].
func (d *SDTDDesign) ExistsMaximalLocal() (Typing, bool) { return d.engine().existsMaximalLocal() }

// IsLocal decides loc[R-DTD] for a D-consistent typing: typeT(τn) ≡ τ.
func (d *DTDDesign) IsLocal(typing Typing) (bool, error) {
	res, err := ConsDTD(d.Kernel, typing, schema.KindNFA)
	if err != nil || !res.Consistent {
		return false, err
	}
	ok, _ := schema.EquivalentDTD(res.DTD, d.Type)
	return ok, nil
}

// IsLocal decides loc[R-SDTD] for a D-consistent typing.
func (d *SDTDDesign) IsLocal(typing Typing) (bool, error) {
	res, err := ConsSDTD(d.Kernel, typing, schema.KindNFA)
	if err != nil || !res.Consistent {
		return false, err
	}
	ok, _ := schema.EquivalentSDTD(res.EDTD, d.Type)
	return ok, nil
}

// IsMaximalLocal decides ml[R-DTD]: local plus per-node word maximality
// (Corollary 4.3). The typing's root contents are projected to element
// names.
func (d *DTDDesign) IsMaximalLocal(typing Typing) (bool, error) {
	return d.engine().verifyNodes(typing, d.IsLocal, (*WordDesign).MaximalSound)
}

// IsMaximalLocal decides ml[R-SDTD].
func (d *SDTDDesign) IsMaximalLocal(typing Typing) (bool, error) {
	return d.engine().verifyNodes(typing, d.IsLocal, (*WordDesign).MaximalSound)
}

// IsPerfect decides perf[R-DTD]: local plus per-node word perfection.
func (d *DTDDesign) IsPerfect(typing Typing) (bool, error) {
	return d.engine().verifyNodes(typing, d.IsLocal, isPerfectNode)
}

// IsPerfect decides perf[R-SDTD].
func (d *SDTDDesign) IsPerfect(typing Typing) (bool, error) {
	return d.engine().verifyNodes(typing, d.IsLocal, isPerfectNode)
}
