package core

import (
	"fmt"
	"math/bits"
	"slices"

	"dxml/internal/axml"
	"dxml/internal/strlang"
)

// This file implements the typing problems for words (Section 5) and
// boxes (Section 7): the verification problems loc/ml/perf[nFA] and the
// existence problems ∃-loc/∃-ml/∃-perf[nFA], via the perfect automaton and
// the Dec(Ωi) cell decomposition.
//
// Everything is implemented over kernel boxes; WordDesign is the
// singleton-box special case.

// BoxDesign is a top-down design ⟨A, B⟩: a target nFA-type and a kernel
// box.
//
// AllowTrivialTypes controls a convention the paper leaves tacit: whether
// a function may be typed with the trivial language {ε} (a resource that
// can only ever contribute nothing). The paper's examples require trivial
// types to be excluded — under the literal Definition 12, Example 11's
// design would have the degenerate local typing (ab+ba, {ε}) and
// Figure 5's bad design would have one where a single function grabs the
// whole content — so exclusion is the default. Set AllowTrivialTypes for
// the literal reading; see DESIGN.md erratum E4.
//
// A design derives its artifacts once: the perfect automaton Ω, the
// Dec(Ωi) cells and the sound cell-union tuples of Theorem 6.11 are built
// on first use and reused by every procedure later called on the same
// value (∃-loc, ∃-ml, ∃-perf and the verifiers). The tuples come from a
// frontier search over the target determinized on demand, which builds
// no automaton per candidate (see searchSoundTuples). Everything is rebuilt
// when Target or Kernel is replaced, the tuples also when
// AllowTrivialTypes or DisableSearchPruning changes; everything that
// depends on a typing passed in is checked on every call. A design is not
// safe for concurrent use, and Target and Kernel must not be modified in
// place after first use.
type BoxDesign struct {
	Target *strlang.NFA
	Kernel *axml.KernelBox

	AllowTrivialTypes bool

	// DisableSearchPruning turns off the prefix pruning of the cell-union
	// search: a candidate whose prefix B0 τ1 … B_{i+1} reaches the dead
	// state of the determinized target is then extended anyway, and every
	// combination of cell unions reaches the soundness test. Only useful
	// for the ablation benchmarks — the pruned and unpruned searches
	// return the same tuples, the unpruned one visits exponentially more
	// candidates on designs like Figure 5's.
	DisableSearchPruning bool

	perfect *PerfectAutomaton
	cells   [][]Cell
	search  *tupleSearch
}

// cellTuple is a candidate typing of the cell-union search: per function,
// the bit mask of the Dec(Ωi) cells whose union types it.
type cellTuple []uint64

// tupleSearch is the outcome of the sound-tuple search under the options
// it ran with.
type tupleSearch struct {
	allowTrivial, noPruning bool
	sound                   []cellTuple
	maximal                 []cellTuple // the maximal sound tuples, once asked for
	maximalDone             bool
}

// WordDesign is a top-down design ⟨A, w⟩ over a kernel string.
type WordDesign struct {
	BoxDesign
	KernelString *axml.KernelString
}

// NewBoxDesign builds a box design.
func NewBoxDesign(target *strlang.NFA, kernel *axml.KernelBox) *BoxDesign {
	return &BoxDesign{Target: target, Kernel: kernel}
}

// NewWordDesign builds a word design.
func NewWordDesign(target *strlang.NFA, kernel *axml.KernelString) *WordDesign {
	return &WordDesign{
		BoxDesign:    BoxDesign{Target: target, Kernel: kernel.Box()},
		KernelString: kernel,
	}
}

// MustWordDesign parses a regex target and a kernel string, e.g.
// MustWordDesign("a* b c*", "f1 b f2").
func MustWordDesign(targetRegex, kernel string) *WordDesign {
	return NewWordDesign(
		strlang.RegexNFA(strlang.MustParseRegex(targetRegex)),
		axml.MustParseKernelString(kernel))
}

// Perfect returns the design's perfect automaton, built on first use and
// again, with everything derived from it, when Target or Kernel has been
// replaced.
func (d *BoxDesign) Perfect() *PerfectAutomaton {
	if p := d.perfect; p == nil || p.target != d.Target || p.kernel != d.Kernel {
		d.perfect = BuildPerfect(d.Target, d.Kernel)
		d.cells, d.search = nil, nil
	}
	return d.perfect
}

// Cells returns the Dec(Ωi) cells per function, built on first use.
func (d *BoxDesign) Cells() [][]Cell {
	cells := d.cellTable()
	out := make([][]Cell, len(cells))
	for i, cs := range cells {
		out[i] = slices.Clone(cs)
	}
	return out
}

// cellTable returns the design's own Dec(Ωi) cells, built on first use.
func (d *BoxDesign) cellTable() [][]Cell {
	p := d.Perfect()
	if d.cells == nil {
		d.cells = make([][]Cell, d.Kernel.NumFuncs())
		for i := 1; i <= d.Kernel.NumFuncs(); i++ {
			autos := make([]*strlang.NFA, len(p.Aut(i)))
			for j, la := range p.Aut(i) {
				autos[j] = la.Lang
			}
			d.cells[i-1] = DecomposeCells(autos)
		}
	}
	return d.cells
}

// ExtensionNFA returns the automaton for ext_B(τn) = B0 τ1 B1 … τn Bn.
func (d *BoxDesign) ExtensionNFA(typing WordTyping) *strlang.NFA {
	parts := make([]*strlang.NFA, 0, 2*len(typing)+1)
	for i, b := range d.Kernel.Boxes {
		parts = append(parts, strlang.BoxNFA(b))
		if i < len(typing) {
			parts = append(parts, typing[i])
		}
	}
	return strlang.ConcatAll(parts...)
}

// Sound reports whether ext(τn) ⊆ [A] (Definition 12); the witness is a
// violating extension string.
func (d *BoxDesign) Sound(typing WordTyping) (bool, []strlang.Symbol) {
	return strlang.Included(d.ExtensionNFA(typing), d.Target)
}

// Complete reports whether ext(τn) ⊇ [A]; the witness is a string of [A]
// not covered.
func (d *BoxDesign) Complete(typing WordTyping) (bool, []strlang.Symbol) {
	return strlang.Included(d.Target, d.ExtensionNFA(typing))
}

// Local decides loc[nFA] (Theorem 5.3): ext(τn) = [A].
func (d *BoxDesign) Local(typing WordTyping) bool {
	ok, _ := strlang.Equivalent(d.ExtensionNFA(typing), d.Target)
	return ok
}

// MaximalSound decides whether the sound typing (τn) is maximal among the
// sound typings (Theorem 7.1's procedure): no Dec(Ωi) cell extends some τi
// while preserving soundness. It requires (τn) to be sound.
func (d *BoxDesign) MaximalSound(typing WordTyping) (bool, error) {
	if ok, w := d.Sound(typing); !ok {
		return false, fmt.Errorf("core: typing is not sound (witness %v)", w)
	}
	cells := d.cellTable()
	for i := range typing {
		for _, cell := range cells[i] {
			inter := strlang.Intersect(cell.Lang, typing[i])
			if inter.IsEmpty() {
				// Total extension: sound iff adding the whole cell stays
				// inside [A] (Lemma 6.9 handles the partial case; here we
				// check directly).
				extended := append(WordTyping{}, typing...)
				extended[i] = strlang.Union(typing[i], cell.Lang)
				if ok, _ := d.Sound(extended); ok {
					return false, nil
				}
			} else if ok, _ := strlang.Included(cell.Lang, typing[i]); !ok {
				// Partial extension: by Lemma 6.9 the extension by the cell
				// is still sound, so (τn) is not maximal.
				return false, nil
			}
		}
	}
	return true, nil
}

// MaximalLocal decides ml[nFA]: the typing is local and maximal.
func (d *BoxDesign) MaximalLocal(typing WordTyping) (bool, error) {
	if !d.Local(typing) {
		return false, nil
	}
	return d.MaximalSound(typing)
}

// PerfectTyping decides ∃-perf[nFA] (Theorems 6.5 and 6.8): a perfect
// typing exists iff w(Ωn) ≡ A, in which case it is exactly (Ωn).
//
// Under the default no-trivial-types convention (see AllowTrivialTypes),
// Ω components may be inflated by ε-options that no admissible typing can
// use, so when the Ω test fails the decision falls back to the equivalent
// characterization “the maximal sound typing is unique and local”, over
// the Dec(Ωi) cell space (complete by Theorems 6.3 and 6.10).
func (d *BoxDesign) PerfectTyping() (WordTyping, bool) {
	p := d.Perfect()
	if !p.Compatible() {
		return nil, false
	}
	omega := p.TypingOmega()
	omegaAdmissible := true
	if !d.AllowTrivialTypes {
		for _, o := range omega {
			if isTrivialEps(o) {
				omegaAdmissible = false
				break
			}
		}
	}
	if omegaAdmissible && d.Local(omega) {
		return omega, true
	}
	if d.AllowTrivialTypes {
		// Theorem 6.5 is exact in the literal reading.
		return nil, false
	}
	// Convention mode: a typing is perfect iff it dominates every sound
	// admissible typing and is local — equivalently, the maximal sound
	// cell-union tuple is unique and local.
	maximal := d.maximalSoundTuples()
	if len(maximal) != 1 {
		return nil, false
	}
	if typing := d.tupleTyping(maximal[0]); d.Local(typing) {
		return typing, true
	}
	return nil, false
}

// IsPerfect decides perf[nFA] (Theorem 6.7): the typing is perfect iff it
// is local and equivalent to the design's perfect typing.
func (d *BoxDesign) IsPerfect(typing WordTyping) bool {
	perfect, ok := d.PerfectTyping()
	if !ok {
		return false
	}
	return d.Local(typing) && EquivWord(typing, perfect)
}

// maximalSoundTuples returns the maximal elements of the sound cell-union
// tuples, computed on first use.
func (d *BoxDesign) maximalSoundTuples() []cellTuple {
	tuples := d.soundTuples()
	s := d.search
	if !s.maximalDone {
		for i, t := range tuples {
			isMax := true
			for j, u := range tuples {
				if i != j && tupleDominated(t, u) {
					isMax = false
					break
				}
			}
			if isMax {
				s.maximal = append(s.maximal, t)
			}
		}
		s.maximalDone = true
	}
	return s.maximal
}

// tupleDominated reports whether a < b as cell-index sets (cells are
// disjoint, so this is componentwise language inclusion).
func tupleDominated(a, b cellTuple) bool {
	lt := false
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
		if a[i] != b[i] {
			lt = true
		}
	}
	return lt
}

// cellUnion returns the union of the cells selected by mask.
func cellUnion(cells []Cell, mask uint64) *strlang.NFA {
	langs := make([]*strlang.NFA, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		langs = append(langs, cells[bits.TrailingZeros64(m)].Lang)
	}
	return strlang.UnionAll(langs...)
}

// tupleTyping builds the typing a cell tuple selects, as fresh automata.
func (d *BoxDesign) tupleTyping(t cellTuple) WordTyping {
	cells := d.cellTable()
	typing := make(WordTyping, len(t))
	for j, mask := range t {
		typing[j] = cellUnion(cells[j], mask)
	}
	return typing
}

// soundTuples returns the sound cell-union tuples, searched on first use
// and again only when AllowTrivialTypes or DisableSearchPruning changes.
func (d *BoxDesign) soundTuples() []cellTuple {
	d.cellTable()
	if s := d.search; s == nil || s.allowTrivial != d.AllowTrivialTypes || s.noPruning != d.DisableSearchPruning {
		d.search = &tupleSearch{
			allowTrivial: d.AllowTrivialTypes,
			noPruning:    d.DisableSearchPruning,
			sound:        d.searchSoundTuples(),
		}
	}
	return d.search.sound
}

// searchSoundTuples enumerates all sound typings that are unions of
// nonempty cell subsets per function. This is the search space of
// Theorem 6.11: every maximal sound typing is of this shape
// (Theorem 6.10), so the enumeration is complete for ∃-loc and ∃-ml.
// Worst-case exponential, matching the problems' EXPSPACE upper bounds.
// A design with no functions has one candidate, the empty typing, sound
// iff the kernel word alone is in [A].
//
// The search runs over D, the target determinized on demand (see
// frontier.go). Each level i carries the frontier of its prefix
// B0 τ1 … Bi, the D-states its words reach, computed once and shared by
// every extension. From it each cell c gets the frontier of
// prefix · c · B_{i+1}; a candidate union's frontier is the union of its
// cells'. A candidate whose frontier holds the dead state has a word that
// is no prefix of [A] and is pruned, with all its extensions. At the last
// level a candidate is sound iff its frontier holds only final D-states.
// Candidates are visited in increasing mask order, function by function.
func (d *BoxDesign) searchSoundTuples() []cellTuple {
	cells := d.cellTable()
	n := d.Kernel.NumFuncs()
	// The cells are nonempty and pairwise disjoint, so a union of cells is
	// {ε} exactly when it is a single cell that is {ε}.
	trivial := make([][]bool, n)
	noCandidate := false
	for i, cs := range cells {
		if len(cs) > 63 {
			panic(fmt.Sprintf("core: function %d has %d Dec(Ωi) cells, beyond the 63-cell search bound", i+1, len(cs)))
		}
		trivial[i] = make([]bool, len(cs))
		if !d.AllowTrivialTypes {
			for c, cell := range cs {
				trivial[i][c] = isTrivialEps(cell.Lang)
			}
		}
		noCandidate = noCandidate || len(cs) == 0 || len(cs) == 1 && trivial[i][0]
	}
	if noCandidate {
		// Some function has no cell union to try, so no tuple exists.
		return nil
	}
	s := newFrontierSearch(d.Target, d.Kernel.Boxes, cells)
	final := s.dfa.final
	front := s.boxRow(0, s.dfa.start)
	if n == 0 {
		if front.SubsetOf(final) {
			return []cellTuple{{}}
		}
		return nil
	}
	// imgs[i][c] is the frontier of the current prefix · c · B_{i+1};
	// fronts[i] is the frontier entering level i (scratch for i > 0).
	imgs := make([][]strlang.IntSet, n)
	fronts := make([]strlang.IntSet, n)
	for i, cs := range cells {
		imgs[i] = make([]strlang.IntSet, len(cs))
		for c := range cs {
			imgs[i][c] = strlang.NewIntSet()
		}
		if i > 0 {
			fronts[i] = strlang.NewIntSet()
		}
	}
	var out []cellTuple
	cur := make(cellTuple, n)
	var rec func(i int, front strlang.IntSet)
	rec = func(i int, front strlang.IntSet) {
		last := i == n-1
		var dead, unsound uint64 // cell masks
		for c, img := range imgs[i] {
			img.Clear()
			for q := range front.All() {
				img.AddAll(s.cellRow(i, c, int32(q)))
			}
			if img.Has(deadState) {
				dead |= 1 << c
			}
			if last && !img.SubsetOf(final) {
				unsound |= 1 << c
			}
		}
		for mask := uint64(1); mask < 1<<len(cells[i]); mask++ {
			if mask&(mask-1) == 0 && trivial[i][bits.TrailingZeros64(mask)] {
				continue
			}
			cur[i] = mask
			if last {
				if mask&unsound == 0 {
					out = append(out, slices.Clone(cur))
				}
				continue
			}
			if !d.DisableSearchPruning && mask&dead != 0 {
				continue
			}
			next := fronts[i+1]
			next.Clear()
			for m := mask; m != 0; m &= m - 1 {
				next.AddAll(imgs[i][bits.TrailingZeros64(m)])
			}
			rec(i+1, next)
		}
	}
	rec(0, front)
	return out
}

// LocalTyping decides ∃-loc[nFA] and returns a local typing when one
// exists. It checks the necessary condition Ω ≡ A (Lemma 6.1 +
// Theorem 6.3) first, tries the perfect typing (Ωn), then searches the
// cell-union space (complete by Theorems 6.3 and 6.10: every local typing
// extends to a maximal local one, which is a cell union).
func (d *BoxDesign) LocalTyping() (WordTyping, bool) {
	p := d.Perfect()
	if !p.Compatible() {
		return nil, false
	}
	if ok, _ := strlang.Equivalent(p.omegaNFA(), d.Target); !ok {
		return nil, false
	}
	omega := p.TypingOmega()
	if d.Local(omega) {
		admissible := true
		if !d.AllowTrivialTypes {
			for _, o := range omega {
				if isTrivialEps(o) {
					admissible = false
					break
				}
			}
		}
		if admissible {
			return omega, true
		}
	}
	for _, tuple := range d.soundTuples() {
		if typing := d.tupleTyping(tuple); d.Local(typing) {
			return typing, true
		}
	}
	return nil, false
}

// MaximalLocalTypings enumerates all maximal local typings (as cell
// unions; complete by Theorem 6.10). ∃-ml[nFA] is non-emptiness of the
// result.
func (d *BoxDesign) MaximalLocalTypings() []WordTyping {
	var out []WordTyping
	for _, t := range d.maximalSoundTuples() {
		if typing := d.tupleTyping(t); d.Local(typing) {
			out = append(out, typing)
		}
	}
	return out
}

// ExistsMaximalLocal decides ∃-ml[nFA].
func (d *BoxDesign) ExistsMaximalLocal() (WordTyping, bool) {
	ts := d.MaximalLocalTypings()
	if len(ts) == 0 {
		return nil, false
	}
	return ts[0], true
}

// MaximalSoundTypings enumerates the maximal sound typings (as cell
// unions, complete by Theorem 6.10). Unlike MaximalLocalTypings, the
// results need not be local — Remark 2 notes they are the fallback when a
// design admits no local typing.
func (d *BoxDesign) MaximalSoundTypings() []WordTyping {
	var out []WordTyping
	for _, t := range d.maximalSoundTuples() {
		out = append(out, d.tupleTyping(t))
	}
	return out
}

// QuasiPerfectTyping decides the quasi-perfect property of Remark 2: a
// (possibly non-local) unique maximal sound typing comprising every other
// sound typing. Every perfect typing is quasi-perfect; the converse fails
// exactly when the quasi-perfect typing is not local.
func (d *BoxDesign) QuasiPerfectTyping() (WordTyping, bool) {
	maximal := d.MaximalSoundTypings()
	if len(maximal) != 1 {
		return nil, false
	}
	return maximal[0], true
}

// isTrivialEps reports whether [a] = {ε}: a accepts ε and no symbol lies
// on an accepting path.
func isTrivialEps(a *strlang.NFA) bool {
	return a.AcceptsEps() && len(a.UsefulSymbols()) == 0
}
