package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
)

// oracleSearchSoundTuples is the sound-tuple search without D: for every
// candidate it builds the automaton of the partial extension
// B0 τ1 … B_i τ_{i+1}, prunes unless that is included in the prefix
// closure of the target, and decides each leaf with Sound. It enumerates
// the same candidates in the same order as searchSoundTuples, which must
// return exactly its tuples.
func (d *BoxDesign) oracleSearchSoundTuples() []cellTuple {
	cells := d.cellTable()
	n := d.Kernel.NumFuncs()
	// The cells are nonempty and pairwise disjoint, so a union of cells is
	// {ε} exactly when it is a single cell that is {ε}.
	trivial := make([][]bool, n)
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
	}
	// Prefix closure of the target: the trimmed automaton with every
	// state final (all states are co-reachable after trimming).
	pref, _ := d.Target.Trim()
	prefAll := pref.Clone()
	for q := 0; q < prefAll.NumStates(); q++ {
		prefAll.MarkFinal(q)
	}
	var out []cellTuple
	cur := make(cellTuple, n)
	langs := make([]*strlang.NFA, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			typing := make(WordTyping, n)
			copy(typing, langs)
			if ok, _ := d.Sound(typing); ok {
				out = append(out, slices.Clone(cur))
			}
			return
		}
		for mask := uint64(1); mask < 1<<len(cells[i]); mask++ {
			if mask&(mask-1) == 0 && trivial[i][bits.TrailingZeros64(mask)] {
				continue
			}
			cur[i] = mask
			langs[i] = cellUnion(cells[i], mask)
			// Prefix pruning: B0 τ1 B1 … τ_{i+1} must stay within the
			// prefixes of [A].
			if !d.DisableSearchPruning {
				parts := make([]*strlang.NFA, 0, 2*i+2)
				for j := 0; j <= i; j++ {
					parts = append(parts, strlang.BoxNFA(d.Kernel.Boxes[j]), langs[j])
				}
				prefix := strlang.ConcatAll(parts...)
				if ok, _ := strlang.Included(prefix, prefAll); !ok {
					continue
				}
			}
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TestFrontierSearchMatchesOracle: the frontier search returns the
// oracle's tuples in the oracle's order, with pruning and trivial types
// each on and off, on random word designs, on every box design reached
// through random DTD node designs and EDTD κ box designs, on the paper's
// Figures 4–6 and Example 11, and on the corner cases: no functions, an
// empty target, an empty box.
func TestFrontierSearchMatchesOracle(t *testing.T) {
	var designs, tuples int
	check := func(label string, d *BoxDesign) {
		t.Helper()
		designs++
		for _, o := range []memoOpts{{}, {allowTrivial: true}, {noPruning: true}, {allowTrivial: true, noPruning: true}} {
			e := &BoxDesign{Target: d.Target, Kernel: d.Kernel,
				AllowTrivialTypes: o.allowTrivial, DisableSearchPruning: o.noPruning}
			oracle := &BoxDesign{Target: d.Target, Kernel: d.Kernel,
				AllowTrivialTypes: o.allowTrivial, DisableSearchPruning: o.noPruning}
			// The unpruned oracle builds an automaton per candidate, which
			// is out of reach on the largest node designs (Figure 5's has
			// about 10⁶ candidates). There the unpruned frontier search is
			// held to the pruned oracle: pruning changes no answer
			// (TestAblationEquivalence).
			candidates := 1
			for _, cs := range e.cellTable() {
				if candidates *= 1<<len(cs) - 1; candidates > 1<<10 {
					oracle.DisableSearchPruning = false
					break
				}
			}
			want := oracle.oracleSearchSoundTuples()
			got := e.searchSoundTuples()
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s %+v: frontier search %v, oracle %v", label, o, got, want)
			}
			tuples += len(got)
		}
	}
	checkNodes := func(label string, nds []*NodeDesign) {
		t.Helper()
		for _, nd := range nds {
			check(fmt.Sprintf("%s node %v", label, nd.Path), &nd.Design.BoxDesign)
		}
	}
	checkEDTD := func(label string, d *EDTDDesign) {
		t.Helper()
		// Run every procedure, then check every κ box design they built.
		d.ExistsLocal()
		d.ExistsPerfect()
		if _, err := d.MaximalLocalTypings(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(d.cache().designs) == 0 {
			t.Fatalf("%s: no κ box designs built", label)
		}
		for key, nds := range d.cache().designs {
			checkNodes(fmt.Sprintf("%s κ %q", label, key), nds)
		}
	}

	r := rand.New(rand.NewSource(1616))
	kernels := []string{"f1", "a f1", "f1 f2", "f1 b f2", "a f1 c f2", "f1 f2 f3"}
	for trial := 0; trial < 80; trial++ {
		re, kernel := randomWordRegex(r, 2+trial%2), kernels[r.Intn(len(kernels))]
		check(fmt.Sprintf("τ=%s w=%s", re, kernel), &MustWordDesign(re, kernel).BoxDesign)
	}

	dtdKernels := []string{"s(f1)", "s(a f1)", "s(f1 f2)", "s(a(f1) b)", "s(a(f1) f2)"}
	roots := []string{"a* b?", "a b", "a*", "a | b", "a+ b*"}
	for trial := 0; trial < 20; trial++ {
		src := fmt.Sprintf("root s\ns -> %s\na -> c?\nb -> ε", roots[r.Intn(len(roots))])
		kernel := dtdKernels[r.Intn(len(dtdKernels))]
		d := &DTDDesign{Type: schema.MustParseDTD(schema.KindNRE, src), Kernel: axml.MustParseKernel(kernel)}
		checkNodes(fmt.Sprintf("DTD %q over %s", src, kernel), d.NodeDesigns())
	}

	edtdKernels := []string{"s(f1)", "s(f1 a(f2))", "s(a(f1) f2)", "s(a(f1) a(f2))"}
	edtdRoots := []string{"a1*", "a1, a2", "(a1 | a2)*", "a1+, a2?", "a2, a1*"}
	a1s := []string{"c*", "c?, d"}
	a2s := []string{"d", "c, d*"}
	for trial := 0; trial < 12; trial++ {
		src := fmt.Sprintf("root s\ns -> %s\na1 : a -> %s\na2 : a -> %s",
			edtdRoots[r.Intn(len(edtdRoots))], a1s[r.Intn(len(a1s))], a2s[r.Intn(len(a2s))])
		kernel := edtdKernels[r.Intn(len(edtdKernels))]
		checkEDTD(fmt.Sprintf("EDTD %q over %s", src, kernel),
			&EDTDDesign{Type: schema.MustParseEDTD(schema.KindNRE, src), Kernel: axml.MustParseKernel(kernel)})
	}

	// Figures 4 and 5: τ and τ′ over T0; Figure 6: τ″ over T1.
	checkNodes("Figure 4", (&DTDDesign{Type: eurostatDTD(t), Kernel: eurostatKernel()}).NodeDesigns())
	checkNodes("Figure 5", (&DTDDesign{Type: schema.MustParseDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA* | natIndB*)
		averages -> (Good, index+)+
		natIndA -> country, Good, index
		natIndB -> country, Good, value, year
		index -> value, year
	`), Kernel: eurostatKernel()}).NodeDesigns())
	checkEDTD("Figure 6", &EDTDDesign{Type: schema.MustParseEDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA, natIndB)+
		averages -> (Good, index+)+
		natIndA : nationalIndex -> country, Good, index
		natIndB : nationalIndex -> country, Good, value, year
		index -> value, year
	`), Kernel: axml.MustParseKernel("eurostat(f1 nationalIndex(f2) f3)")})
	check("Example 11", &MustWordDesign("a b | b a", "f1 f2").BoxDesign)

	// No functions: one candidate, the empty typing.
	check("no functions, in [A]", &MustWordDesign("a b", "a b").BoxDesign)
	check("no functions, not in [A]", &MustWordDesign("a b", "a").BoxDesign)
	// An empty target: D's start state is dead as well as the empty
	// subset, and no typing is sound unless the extension is empty.
	for _, kernel := range []string{"f1", "a f1", "f1 f2", "a"} {
		check("empty target over "+kernel, NewBoxDesign(strlang.EmptyLang(), axml.MustParseKernelString(kernel).Box()))
	}
	// A box with an empty position denotes ∅, so every extension is empty.
	for _, kb := range []*axml.KernelBox{
		{Boxes: []strlang.Box{{{}}}},
		{Boxes: []strlang.Box{{{"a"}}, {{}}}, Funcs: []string{"f1"}},
	} {
		check(fmt.Sprintf("empty box %v", kb.Boxes), NewBoxDesign(strlang.RegexNFA(strlang.MustParseRegex("a b*")), kb))
	}

	if tuples == 0 {
		t.Fatalf("%d designs checked but no sound tuple found", designs)
	}
	t.Logf("%d designs, %d sound tuples over the four option settings", designs, tuples)
}
