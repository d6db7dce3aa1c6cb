package core

import (
	"fmt"
	"sort"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/uta"
	"dxml/internal/xmltree"
)

// This file implements the R-EDTD class of the top-down engine
// (Section 4.3, see topdown.go): the global type is first normalized
// (Lemma 4.10), then candidate assignments κ from kernel nodes to sets of
// specialized names induce box designs D^x_κ (Definition 19); locality of
// the tree design is equivalent to the existence of a κ whose box designs
// are all local and whose combination verifies (Theorem 4.13,
// Corollary 4.14), and the perfect κ can be computed top-down
// (Corollary 4.16).

// EDTDDesign is a top-down R-EDTD design ⟨τ, T⟩.
//
// The normalized type, the tree automaton of the type, the perfect κ, the
// κ space and the box designs of every κ are built on first use and
// reused by every procedure later called on the same value, together with
// what each box design derives (see BoxDesign); they are rebuilt when
// Type or Kernel is replaced or AllowTrivialTypes changes. Procedure
// results are not kept, and everything that depends on a typing passed
// in is checked on every call. A design is not safe for concurrent use,
// and Type and Kernel must not be modified in place after first use.
type EDTDDesign struct {
	Type              *schema.EDTD
	Kernel            *axml.Kernel
	AllowTrivialTypes bool

	derived *topDown
}

// cache returns the design's engine, whose base is the normalized type
// once Normalized has succeeded.
func (d *EDTDDesign) cache() *topDown {
	return derive(&d.derived, d.Type, d.Kernel, d.AllowTrivialTypes, func(t *topDown) {
		t.kappaOf = func() (Kappa, error) { return perfectKappa(t.base, t.kernel), nil }
	})
}

// Normalized returns the normalized version of the design's type, built
// on first use.
func (d *EDTDDesign) Normalized() (*schema.EDTD, error) {
	t := d.cache()
	if t.base == nil {
		n, err := schema.Normalize(d.Type, schema.KindNFA)
		if err != nil {
			return nil, err
		}
		t.base = n
	}
	return t.base, nil
}

// engine returns the design's engine with its type normalized.
func (d *EDTDDesign) engine() (*topDown, error) {
	if _, err := d.Normalized(); err != nil {
		return nil, err
	}
	return d.derived, nil
}

// equivalentToType reports whether [comp] = [τ], against the tree
// automaton of τ, built on first use.
func (t *topDown) equivalentToType(comp *schema.EDTD) bool {
	if t.typeNUTA == nil {
		t.typeNUTA, _ = t.typ.(*schema.EDTD).ToNUTA()
	}
	na, _ := comp.ToNUTA()
	ok, _ := uta.Equivalent(na, t.typeNUTA)
	return ok
}

// verifyLocal composes the typing and checks T(τn) ≡ τ.
func (t *topDown) verifyLocal(typing Typing) bool {
	comp, err := Compose(t.kernel, typing)
	return err == nil && t.equivalentToType(comp)
}

// PerfectKappa builds the κ of Corollary 4.16 top-down: κ(root) is the
// start set matching the root label; for a node x with κ(x) known, the
// children's sets are read off the alphabet of [r(x)] ∩ [τ(x)] with
// position-tagged symbols. A nil result means some node gets an empty set,
// so no sound typing (hence no perfect typing) exists.
func (d *EDTDDesign) PerfectKappa() (Kappa, error) {
	t, err := d.engine()
	if err != nil {
		return nil, err
	}
	kappa, _ := t.ownKappa()
	return kappa.clone(), nil
}

// perfectKappa builds the κ of Corollary 4.16 over the normalized type
// norm; nil when there is none.
func perfectKappa(norm *schema.EDTD, k *axml.Kernel) Kappa {
	kappa := Kappa{}
	root := k.Tree()
	var starts []string
	for _, s := range norm.Starts {
		if norm.Elem(s) == root.Label {
			starts = append(starts, s)
		}
	}
	if len(starts) == 0 {
		return nil
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
			if k.IsFunc(c.Label) {
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
			if k.IsFunc(c.Label) {
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
			if !k.IsFunc(c.Label) && !rec(c) {
				return false
			}
		}
		return true
	}
	if !rec(root) {
		return nil
	}
	return kappa
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

// ExistsPerfect decides ∃-perf[R-EDTD] (Corollary 4.16): build the perfect
// κ, require a perfect typing for every box design, and verify the
// combination.
func (d *EDTDDesign) ExistsPerfect() (Typing, bool, error) {
	t, err := d.engine()
	if err != nil {
		return nil, false, err
	}
	typing, ok := t.existsOwn((*WordDesign).PerfectTyping)
	return typing, ok, nil
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
	return d.cache().equivalentToType(comp), nil
}

// allKappas returns every κ (nonempty subsets of Σ̃d(lab(x)) per element
// node), enumerated on first use. Exponential, as the NP^C oracle machine
// of Corollary 4.14 requires.
func (t *topDown) allKappas() []Kappa {
	if t.kappas != nil {
		return t.kappas
	}
	nodes := t.elementNodes()
	options := make([][][]string, len(nodes))
	for i, n := range nodes {
		specs := t.base.Specializations(n.Label)
		for mask := 1; mask < 1<<len(specs); mask++ {
			var set []string
			for b := range specs {
				if mask&(1<<b) != 0 {
					set = append(set, specs[b])
				}
			}
			options[i] = append(options[i], set)
		}
	}
	t.kappas = []Kappa{}
	eachPick(options, func(pick [][]string) {
		kappa := make(Kappa, len(nodes))
		for i, n := range nodes {
			kappa[n] = pick[i]
		}
		t.kappas = append(t.kappas, kappa)
	})
	return t.kappas
}

// ExistsLocal decides ∃-loc[R-EDTD] (Corollary 4.14): guess κ, solve the
// box designs, verify the combination.
func (d *EDTDDesign) ExistsLocal() (Typing, bool, error) {
	if typing, ok, err := d.ExistsPerfect(); err != nil || ok {
		return typing, ok, err
	}
	t := d.derived // normalized by ExistsPerfect
	for _, kappa := range t.allKappas() {
		if typing, ok := t.exists(kappa, (*WordDesign).LocalTyping); ok {
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
	t, err := d.engine()
	if err != nil {
		return nil, err
	}
	var candidates []Typing
	for _, kappa := range t.allKappas() {
		t.eachMaximal(kappa, func(wt WordTyping) {
			if typing := t.typing(wt); t.verifyLocal(typing) {
				candidates = append(candidates, typing)
			}
		})
	}
	return undominated(candidates), nil
}

// undominated drops the candidates that another one strictly contains
// componentwise, and every later copy of an equivalent one, keeping the
// order. Each candidate's components become tree automata once, on first
// comparison, and each ordered pair is decided at most once.
func undominated(candidates []Typing) []Typing {
	nutas := make([][]*uta.NUTA, len(candidates))
	toNUTAs := func(i int) []*uta.NUTA {
		if nutas[i] == nil {
			nutas[i] = make([]*uta.NUTA, len(candidates[i]))
			for x, tau := range candidates[i] {
				nutas[i][x], _ = tau.ToNUTA()
			}
		}
		return nutas[i]
	}
	leqs := map[[2]int]bool{}
	leq := func(i, j int) bool {
		v, ok := leqs[[2]int{i, j}]
		if !ok {
			a, b := toNUTAs(i), toNUTAs(j)
			v = true
			for x := range a {
				if v, _ = uta.Included(a[x], b[x]); !v {
					break
				}
			}
			leqs[[2]int{i, j}] = v
		}
		return v
	}
	var out []Typing
	for i, t := range candidates {
		keep := true
		for j := range candidates {
			if i != j && leq(i, j) && (j < i || !leq(j, i)) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, t)
		}
	}
	return out
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
