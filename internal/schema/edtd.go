package schema

import (
	"fmt"
	"sort"
	"strings"

	"dxml/internal/strlang"
	"dxml/internal/uta"
	"dxml/internal/xmltree"
)

// EDTD is an R-EDTD τ = ⟨Σ, Σ̃, π, s̃, µ⟩ (Definition 7): a grammar over
// specialized element names Σ̃, each mapped by µ to an element name of Σ.
// A tree t (labeled over Σ) is in [τ] iff t = µ(t′) for some witness tree
// t′ of the underlying grammar.
//
// Generalization: Starts may hold several start names. The paper's
// definition has a single s̃; normalization (Section 4.3) naturally
// produces a set of possible root witnesses, so the internal representation
// allows it. All constructors used for paper-level schemas set exactly one.
//
// An R-SDTD (Definition 6) is an EDTD satisfying the single-type
// requirement; see IsSingleType.
type EDTD struct {
	Kind Kind
	// Names maps every specialized name to its element name (µ).
	Names map[string]string
	// Starts are the admissible root witnesses (exactly one for
	// paper-level types).
	Starts []string
	// Rules maps specialized names to content models over Σ̃. Missing
	// rules mean {ε}.
	Rules map[string]*Content
}

// NewEDTD returns an empty EDTD of the given kind with a single start.
func NewEDTD(kind Kind, start, startElem string) *EDTD {
	e := &EDTD{Kind: kind, Names: map[string]string{}, Rules: map[string]*Content{}}
	e.Starts = []string{start}
	e.Names[start] = startElem
	return e
}

// DeclareName declares µ(name) = elem.
func (e *EDTD) DeclareName(name, elem string) { e.Names[name] = elem }

// Elem returns µ(name). Undeclared names map to themselves (the
// no-specialization shorthand used in the paper's examples).
func (e *EDTD) Elem(name string) string {
	if el, ok := e.Names[name]; ok {
		return el
	}
	return name
}

// SetRule sets π(name) = c.
func (e *EDTD) SetRule(name string, c *Content) error {
	if c.Kind() != e.Kind {
		return fmt.Errorf("schema: rule %s has kind %s, EDTD has kind %s", name, c.Kind(), e.Kind)
	}
	e.Rules[name] = c
	if _, ok := e.Names[name]; !ok {
		e.Names[name] = name
	}
	return nil
}

// MustSetRule is SetRule that panics on error.
func (e *EDTD) MustSetRule(name string, c *Content) {
	if err := e.SetRule(name, c); err != nil {
		panic(err)
	}
}

// Rule returns π(name), defaulting to {ε}.
func (e *EDTD) Rule(name string) *Content {
	if c, ok := e.Rules[name]; ok {
		return c
	}
	return EpsContent(e.Kind)
}

// SpecializedNames returns the sorted specialized names Σ̃: declared names,
// starts, rule heads, and names in content models.
func (e *EDTD) SpecializedNames() []string {
	set := map[string]struct{}{}
	for _, s := range e.Starts {
		set[s] = struct{}{}
	}
	for n := range e.Names {
		set[n] = struct{}{}
	}
	for n, c := range e.Rules {
		set[n] = struct{}{}
		for _, s := range c.Lang().Alphabet() {
			set[s] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ElementNames returns the sorted element names Σ (µ images).
func (e *EDTD) ElementNames() []string {
	set := map[string]struct{}{}
	for _, n := range e.SpecializedNames() {
		set[e.Elem(n)] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Specializations returns the sorted specialized names mapping to elem
// (the set Σ̃(a) of Definition 6).
func (e *EDTD) Specializations(elem string) []string {
	var out []string
	for _, n := range e.SpecializedNames() {
		if e.Elem(n) == elem {
			out = append(out, n)
		}
	}
	return out
}

// IsSingleType reports whether e satisfies the single-type requirement of
// Definition 6: no content model's alphabet contains two distinct
// specializations of the same element name, and no two starts share an
// element name. When it fails, the offending element name is returned.
func (e *EDTD) IsSingleType() (bool, string) {
	check := func(names []strlang.Symbol) (bool, string) {
		byElem := map[string]string{}
		for _, n := range names {
			el := e.Elem(n)
			if prev, ok := byElem[el]; ok && prev != n {
				return false, el
			}
			byElem[el] = n
		}
		return true, ""
	}
	if ok, el := check(e.Starts); !ok {
		return false, el
	}
	for _, n := range e.SpecializedNames() {
		if ok, el := check(e.Rule(n).UsefulSymbols()); !ok {
			return false, el
		}
	}
	return true, ""
}

// ToNUTA converts e to an equivalent nondeterministic unranked tree
// automaton: states are specialized names, Δ(ã, µ(ã)) is π(ã) with names
// replaced by state symbols, finals are the starts. The returned index maps
// names to states.
func (e *EDTD) ToNUTA() (*uta.NUTA, map[string]int) {
	names := e.SpecializedNames()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	toState := func(s strlang.Symbol) strlang.Symbol { return uta.StateSym(idx[s]) }
	a := uta.NewNUTA(len(names))
	for _, n := range names {
		a.SetDelta(idx[n], e.Elem(n), e.Rule(n).Lang().MapSymbols(toState))
	}
	for _, s := range e.Starts {
		a.MarkFinal(idx[s])
	}
	return a, idx
}

// Validate reports whether t ∈ [e]; nil means valid.
func (e *EDTD) Validate(t *xmltree.Tree) error {
	a, _ := e.ToNUTA()
	if !a.Accepts(t) {
		return fmt.Errorf("schema: tree %s is not valid for the EDTD", t)
	}
	return nil
}

// WitnessStates returns the set of specialized names assignable to the
// root of t by the grammar (ignoring the start requirement).
func (e *EDTD) WitnessStates(t *xmltree.Tree) []string {
	a, idx := e.ToNUTA()
	rev := make([]string, len(idx))
	for n, i := range idx {
		rev[i] = n
	}
	var out []string
	for _, q := range a.PossibleStates(t).Sorted() {
		out = append(out, rev[q])
	}
	return out
}

// SubType returns τ(ã) (Lemma 3.4): the same grammar restarted at name.
func (e *EDTD) SubType(name string) *EDTD {
	out := e.Clone()
	out.Starts = []string{name}
	return out
}

// Clone returns a copy sharing the immutable content models.
func (e *EDTD) Clone() *EDTD {
	out := &EDTD{Kind: e.Kind, Names: map[string]string{}, Rules: map[string]*Content{}}
	out.Starts = append([]string(nil), e.Starts...)
	for n, el := range e.Names {
		out.Names[n] = el
	}
	for n, c := range e.Rules {
		out.Rules[n] = c
	}
	return out
}

// IsEmptyLang reports whether [e] = ∅.
func (e *EDTD) IsEmptyLang() bool {
	a, _ := e.ToNUTA()
	return a.IsEmpty()
}

// Reduce returns an equivalent EDTD keeping only useful specialized names
// (assignable to some tree and reachable from a start), restricting content
// models accordingly. Fails on the empty language, or for KindDRE when a
// restricted model loses one-unambiguity.
func (e *EDTD) Reduce() (*EDTD, error) {
	a, idx := e.ToNUTA()
	nonEmpty := a.ReachableStates()
	rev := make([]string, len(idx))
	for n, i := range idx {
		rev[i] = n
	}
	// Reachability from starts through content models, restricted to
	// non-empty names.
	useful := map[string]bool{}
	var stack []string
	for _, s := range e.Starts {
		if nonEmpty.Has(idx[s]) && !useful[s] {
			useful[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, b := range e.Rule(n).UsefulSymbols() {
			if nonEmpty.Has(idx[b]) && !useful[b] {
				useful[b] = true
				stack = append(stack, b)
			}
		}
	}
	if len(useful) == 0 {
		return nil, fmt.Errorf("schema: [τ] is empty, cannot reduce")
	}
	keep := make([]string, 0, len(useful))
	for n := range useful {
		keep = append(keep, n)
	}
	sort.Strings(keep)
	out := &EDTD{Kind: e.Kind, Names: map[string]string{}, Rules: map[string]*Content{}}
	for _, s := range e.Starts {
		if useful[s] {
			out.Starts = append(out.Starts, s)
		}
	}
	universe := strlang.UniversalLang(keep)
	for _, n := range keep {
		out.Names[n] = e.Elem(n)
		c := e.Rule(n)
		if c.AcceptsEps() && len(c.UsefulSymbols()) == 0 {
			continue
		}
		restricted := strlang.Intersect(c.Lang(), universe)
		nc, err := FromNFA(e.Kind, restricted)
		if err != nil {
			return nil, fmt.Errorf("schema: reducing rule %s: %w", n, err)
		}
		out.Rules[n] = nc
	}
	return out, nil
}

// Size returns the representation size (names plus content model sizes).
func (e *EDTD) Size() int {
	n := len(e.SpecializedNames())
	for _, c := range e.Rules {
		n += c.Size()
	}
	return n
}

// String renders the EDTD in arrow-grammar notation; specialized names with
// µ(name) ≠ name show the element name after a colon.
func (e *EDTD) String() string {
	var b strings.Builder
	for _, s := range e.Starts {
		fmt.Fprintf(&b, "root %s\n", s)
	}
	for _, n := range e.SpecializedNames() {
		c, hasRule := e.Rules[n]
		suffix := ""
		if e.Elem(n) != n {
			suffix = " : " + e.Elem(n)
		}
		if hasRule {
			fmt.Fprintf(&b, "%s%s -> %s\n", n, suffix, c)
		} else if suffix != "" {
			fmt.Fprintf(&b, "%s%s -> ε\n", n, suffix)
		}
	}
	return b.String()
}
