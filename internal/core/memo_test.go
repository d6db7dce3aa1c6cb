package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
)

// A design derives its artifacts once (perfect automaton, cells, sound
// tuples, node designs, κ box designs) and reuses them across procedures.
// These tests pin that the reuse is invisible: whatever order the
// procedures run in, whatever options are toggled after first use, and
// whatever a caller does to the slices it gets back, every answer equals
// the answer of a fresh design asked just that question.

// memoAnswer is what one procedure returned, in comparable form.
type memoAnswer struct {
	ok    bool
	n     int
	words []WordTyping
	trees []Typing
}

func (a memoAnswer) diff(want memoAnswer) error {
	if a.ok != want.ok || a.n != want.n || len(a.words) != len(want.words) || len(a.trees) != len(want.trees) {
		return fmt.Errorf("got ok=%v n=%d %d/%d typings, want ok=%v n=%d %d/%d typings",
			a.ok, a.n, len(a.words), len(a.trees), want.ok, want.n, len(want.words), len(want.trees))
	}
	for i := range a.words {
		if !EquivWord(a.words[i], want.words[i]) {
			return fmt.Errorf("word typing %d differs", i)
		}
	}
	for i := range a.trees {
		if !EquivTyping(a.trees[i], want.trees[i]) {
			return fmt.Errorf("tree typing %d differs", i)
		}
	}
	return nil
}

// clobber overwrites every typing the caller got back, as a careless
// caller might.
func (a memoAnswer) clobber() {
	junk := schema.MustParseEDTD(schema.KindNRE, "root z\nz -> z?")
	for _, wt := range a.words {
		for j := range wt {
			wt[j] = strlang.EmptyLang()
		}
	}
	for _, ty := range a.trees {
		for j := range ty {
			ty[j] = junk
		}
	}
}

func wordAnswer(wt WordTyping, ok bool) memoAnswer {
	if !ok {
		return memoAnswer{}
	}
	return memoAnswer{ok: true, words: []WordTyping{wt}}
}

func treeAnswer(ty Typing, ok bool) memoAnswer {
	if !ok {
		return memoAnswer{}
	}
	return memoAnswer{ok: true, trees: []Typing{ty}}
}

// memoOpts are the options a design's caches are keyed on.
type memoOpts struct{ allowTrivial, noPruning bool }

type memoQuery[D any] struct {
	name string
	run  func(D) memoAnswer
}

// checkMemoized compares one design value, queried in forward and reverse
// order, after option toggles, and after its results were clobbered,
// against a fresh design per query.
func checkMemoized[D any](t *testing.T, label string, fresh func(memoOpts) D, set func(D, memoOpts),
	toggles []memoOpts, queries []memoQuery[D]) {
	t.Helper()
	answers := func(o memoOpts) []memoAnswer {
		out := make([]memoAnswer, len(queries))
		for i, q := range queries {
			out[i] = q.run(fresh(o))
		}
		return out
	}
	check := func(stage string, d D, order []int, want []memoAnswer) {
		t.Helper()
		for _, i := range order {
			if err := queries[i].run(d).diff(want[i]); err != nil {
				t.Fatalf("%s: %s: %s: %v", label, stage, queries[i].name, err)
			}
		}
	}
	forward := make([]int, len(queries))
	for i := range forward {
		forward[i] = i
	}
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)

	var base memoOpts
	want := answers(base)
	d := fresh(base)
	check("forward", d, forward, want)
	check("reverse", fresh(base), reverse, want)
	for _, o := range toggles {
		set(d, o)
		check(fmt.Sprintf("toggled to %+v", o), d, forward, answers(o))
		set(d, base)
		check("toggled back", d, reverse, want)
	}

	d = fresh(base)
	for _, q := range queries {
		q.run(d).clobber()
	}
	check("after clobbering results", d, forward, want)
}

// TestMemoizedDesignMatchesFresh runs the fuzz generators' random word,
// DTD (also as SDTD) and EDTD designs, plus Example 11's design in each
// class, whose answers change when AllowTrivialTypes is toggled.
func TestMemoizedDesignMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(1515))
	t.Run("word", func(t *testing.T) {
		memoWordDesign(t, "a b | b a", "f1 f2")
		kernels := []string{"f1", "a f1", "f1 f2", "f1 b f2", "a f1 c f2"}
		for trial := 0; trial < 25; trial++ {
			re, kernel := randomWordRegex(r, 2), kernels[r.Intn(len(kernels))]
			memoWordDesign(t, re, kernel)
		}
	})
	t.Run("dtd", func(t *testing.T) {
		kernels := []string{"s(f1)", "s(a f1)", "s(f1 f2)", "s(a(f1) b)", "s(a(f1) f2)"}
		roots := []string{"a* b?", "a b", "a*", "a | b", "a+ b*"}
		memoDTDDesign(t, "root s\ns -> (a b) | (b a)\na -> c?\nb -> ε", "s(f1 f2)")
		for trial := 0; trial < 12; trial++ {
			src := fmt.Sprintf("root s\ns -> %s\na -> c?\nb -> ε", roots[r.Intn(len(roots))])
			memoDTDDesign(t, src, kernels[r.Intn(len(kernels))])
		}
	})
	t.Run("edtd", func(t *testing.T) {
		kernels := []string{"s(f1)", "s(f1 a(f2))", "s(a(f1) f2)", "s(a(f1) a(f2))"}
		roots := []string{"a1*", "a1, a2", "(a1 | a2)*", "a1+, a2?", "a2, a1*"}
		a1s := []string{"c*", "c?, d"}
		a2s := []string{"d", "c, d*"}
		memoEDTDDesign(t, "root s\ns -> (a1, a2) | (a2, a1)\na1 : a -> c\na2 : a -> d", "s(f1 f2)")
		for trial := 0; trial < 10; trial++ {
			src := fmt.Sprintf("root s\ns -> %s\na1 : a -> %s\na2 : a -> %s",
				roots[r.Intn(len(roots))], a1s[r.Intn(len(a1s))], a2s[r.Intn(len(a2s))])
			memoEDTDDesign(t, src, kernels[r.Intn(len(kernels))])
		}
	})
}

func memoWordDesign(t *testing.T, re, kernel string) {
	t.Helper()
	target := strlang.RegexNFA(strlang.MustParseRegex(re))
	ks := axml.MustParseKernelString(kernel)
	fresh := func(o memoOpts) *WordDesign {
		d := NewWordDesign(target, ks)
		d.AllowTrivialTypes, d.DisableSearchPruning = o.allowTrivial, o.noPruning
		return d
	}
	// Typings under test for the verifiers, from a design of their own.
	src := fresh(memoOpts{})
	cands := append(src.MaximalLocalTypings(), src.MaximalSoundTypings()...)
	if src.Perfect().Compatible() {
		cands = append(cands, src.Perfect().TypingOmega())
	}
	verify := func(f func(*WordDesign, WordTyping) bool) func(*WordDesign) memoAnswer {
		return func(d *WordDesign) memoAnswer {
			var a memoAnswer
			for _, c := range cands {
				if f(d, c) {
					a.n++
				}
			}
			return a
		}
	}
	queries := []memoQuery[*WordDesign]{
		{"∃-loc", func(d *WordDesign) memoAnswer { return wordAnswer(d.LocalTyping()) }},
		{"∃-ml", func(d *WordDesign) memoAnswer {
			ts := d.MaximalLocalTypings()
			return memoAnswer{ok: len(ts) > 0, n: len(ts), words: ts}
		}},
		{"∃-perf", func(d *WordDesign) memoAnswer { return wordAnswer(d.PerfectTyping()) }},
		{"maximal sound", func(d *WordDesign) memoAnswer {
			ts := d.MaximalSoundTypings()
			return memoAnswer{n: len(ts), words: ts}
		}},
		{"quasi-perfect", func(d *WordDesign) memoAnswer { return wordAnswer(d.QuasiPerfectTyping()) }},
		{"cells", func(d *WordDesign) memoAnswer {
			cells := d.Cells()
			a := memoAnswer{}
			for i := range cells {
				a.n += len(cells[i])
				if len(cells[i]) > 0 {
					cells[i][0] = Cell{Lang: strlang.EmptyLang()}
				}
			}
			return a
		}},
		{"loc", verify(func(d *WordDesign, c WordTyping) bool { return d.Local(c) })},
		{"ml", verify(func(d *WordDesign, c WordTyping) bool { ok, _ := d.MaximalLocal(c); return ok })},
		{"perf", verify((*WordDesign).IsPerfect)},
	}
	set := func(d *WordDesign, o memoOpts) {
		d.AllowTrivialTypes, d.DisableSearchPruning = o.allowTrivial, o.noPruning
	}
	toggles := []memoOpts{{allowTrivial: true}, {noPruning: true}}
	checkMemoized(t, fmt.Sprintf("τ=%s w=%s", re, kernel), fresh, set, toggles, queries)
}

// nodeDesign is what DTDDesign and SDTDDesign share: both reduce to one
// string design per kernel node.
type nodeDesign interface {
	ExistsLocal() (Typing, bool)
	ExistsPerfect() (Typing, bool)
	ExistsMaximalLocal() (Typing, bool)
	MaximalLocalWordTypings() []WordTyping
	TypingFromWords(WordTyping) Typing
	IsLocal(Typing) (bool, error)
	IsMaximalLocal(Typing) (bool, error)
	IsPerfect(Typing) (bool, error)
}

// memoDTDDesign checks the DTD design of src over kernel, and the SDTD
// design of the same type.
func memoDTDDesign(t *testing.T, src, kernel string) {
	t.Helper()
	tau := schema.MustParseDTD(schema.KindNRE, src)
	k := axml.MustParseKernel(kernel)
	label := fmt.Sprintf("%q over %s", src, kernel)
	memoNodeDesign(t, "DTD "+label,
		func(o memoOpts) *DTDDesign {
			return &DTDDesign{Type: tau, Kernel: k, AllowTrivialTypes: o.allowTrivial}
		},
		func(d *DTDDesign, o memoOpts) { d.AllowTrivialTypes = o.allowTrivial },
		(*DTDDesign).NodeDesigns)
	sdtd := tau.ToEDTD()
	memoNodeDesign(t, "SDTD "+label,
		func(o memoOpts) *SDTDDesign {
			return &SDTDDesign{Type: sdtd, Kernel: k, AllowTrivialTypes: o.allowTrivial}
		},
		func(d *SDTDDesign, o memoOpts) { d.AllowTrivialTypes = o.allowTrivial },
		func(d *SDTDDesign) []*NodeDesign { nds, _ := d.NodeDesigns(); return nds })
}

func memoNodeDesign[D nodeDesign](t *testing.T, label string, fresh func(memoOpts) D,
	set func(D, memoOpts), nodes func(D) []*NodeDesign) {
	t.Helper()
	srcDesign := fresh(memoOpts{})
	var cands []Typing
	for _, wt := range srcDesign.MaximalLocalWordTypings() {
		cands = append(cands, srcDesign.TypingFromWords(wt))
	}
	if ty, ok := srcDesign.ExistsLocal(); ok {
		cands = append(cands, ty)
	}
	verify := func(f func(D, Typing) (bool, error)) func(D) memoAnswer {
		return func(d D) memoAnswer {
			var a memoAnswer
			for _, c := range cands {
				if ok, err := f(d, c); err == nil && ok {
					a.n++
				}
			}
			return a
		}
	}
	queries := []memoQuery[D]{
		{"∃-loc", func(d D) memoAnswer { return treeAnswer(d.ExistsLocal()) }},
		{"∃-ml", func(d D) memoAnswer {
			ts := d.MaximalLocalWordTypings()
			return memoAnswer{ok: len(ts) > 0, n: len(ts), words: ts}
		}},
		{"∃-ml tree", func(d D) memoAnswer { return treeAnswer(d.ExistsMaximalLocal()) }},
		{"∃-perf", func(d D) memoAnswer { return treeAnswer(d.ExistsPerfect()) }},
		{"node designs", func(d D) memoAnswer {
			nds := nodes(d)
			a := memoAnswer{n: len(nds)}
			for i := range nds {
				nds[i] = nil
			}
			return a
		}},
		{"loc", verify(D.IsLocal)},
		{"ml", verify(D.IsMaximalLocal)},
		{"perf", verify(D.IsPerfect)},
	}
	checkMemoized(t, label, fresh, set, []memoOpts{{allowTrivial: true}}, queries)
}

func memoEDTDDesign(t *testing.T, src, kernel string) {
	t.Helper()
	tau := schema.MustParseEDTD(schema.KindNRE, src)
	k := axml.MustParseKernel(kernel)
	fresh := func(o memoOpts) *EDTDDesign {
		return &EDTDDesign{Type: tau, Kernel: k, AllowTrivialTypes: o.allowTrivial}
	}
	srcDesign := fresh(memoOpts{})
	cands, err := srcDesign.MaximalLocalTypings()
	if err != nil {
		t.Fatal(err)
	}
	if ty, ok, err := srcDesign.ExistsPerfect(); err == nil && ok {
		cands = append(cands, ty)
	}
	verify := func(f func(*EDTDDesign, Typing) (bool, error)) func(*EDTDDesign) memoAnswer {
		return func(d *EDTDDesign) memoAnswer {
			var a memoAnswer
			for _, c := range cands {
				if ok, err := f(d, c); err == nil && ok {
					a.n++
				}
			}
			return a
		}
	}
	queries := []memoQuery[*EDTDDesign]{
		{"∃-loc", func(d *EDTDDesign) memoAnswer { ty, ok, _ := d.ExistsLocal(); return treeAnswer(ty, ok) }},
		{"∃-ml", func(d *EDTDDesign) memoAnswer {
			ts, _ := d.MaximalLocalTypings()
			return memoAnswer{ok: len(ts) > 0, n: len(ts), trees: ts}
		}},
		{"∃-perf", func(d *EDTDDesign) memoAnswer { ty, ok, _ := d.ExistsPerfect(); return treeAnswer(ty, ok) }},
		{"perfect κ", func(d *EDTDDesign) memoAnswer {
			kappa, _ := d.PerfectKappa()
			a := memoAnswer{ok: kappa != nil, n: len(kappa)}
			for n, names := range kappa {
				for i := range names {
					names[i] = "clobbered"
				}
				delete(kappa, n)
			}
			return a
		}},
		{"loc", verify((*EDTDDesign).IsLocal)},
		{"ml", verify((*EDTDDesign).IsMaximalLocal)},
		{"perf", verify((*EDTDDesign).IsPerfect)},
	}
	set := func(d *EDTDDesign, o memoOpts) { d.AllowTrivialTypes = o.allowTrivial }
	checkMemoized(t, fmt.Sprintf("%q over %s", src, kernel), fresh, set, []memoOpts{{allowTrivial: true}}, queries)
}

// TestReplacedFieldsRebuild: replacing a design's type after first use
// rebuilds everything derived from the old one.
func TestReplacedFieldsRebuild(t *testing.T) {
	w := MustWordDesign("a b | b a", "f1 f2")
	if n := len(w.MaximalLocalTypings()); n != 0 {
		t.Fatalf("Example 11: %d maximal local typings, want 0", n)
	}
	w.Target = strlang.RegexNFA(strlang.MustParseRegex("(a b)+"))
	if n := len(w.MaximalLocalTypings()); n != 3 {
		t.Fatalf("Example 5 after replacing the target: %d maximal local typings, want 3", n)
	}

	k := axml.MustParseKernel("s(f1 f2)")
	d := &DTDDesign{Type: schema.MustParseDTD(schema.KindNRE, "root s\ns -> (a b) | (b a)"), Kernel: k}
	if _, ok := d.ExistsLocal(); ok {
		t.Fatal("DTD Example 11: unexpected local typing")
	}
	d.Type = schema.MustParseDTD(schema.KindNRE, "root s\ns -> (a b)+")
	if n := len(d.MaximalLocalWordTypings()); n != 3 {
		t.Fatalf("DTD Example 5 after replacing the type: %d maximal local typings, want 3", n)
	}

	e := &EDTDDesign{Type: schema.MustParseEDTD(schema.KindNRE, "root s\ns -> (a, b) | (b, a)"), Kernel: k}
	if _, ok, err := e.ExistsLocal(); err != nil || ok {
		t.Fatalf("EDTD Example 11: local=%v err=%v", ok, err)
	}
	e.Type = schema.MustParseEDTD(schema.KindNRE, "root s\ns -> (a, b)+")
	if ts, err := e.MaximalLocalTypings(); err != nil || len(ts) != 3 {
		t.Fatalf("EDTD Example 5 after replacing the type: %d maximal local typings (err %v), want 3", len(ts), err)
	}

	// The kept tree automaton of the type follows a replaced type.
	typing := Typing{
		schema.MustParseEDTD(schema.KindNRE, "root s1\ns1 -> a"),
		schema.MustParseEDTD(schema.KindNRE, "root s2\ns2 -> b"),
	}
	e = &EDTDDesign{Type: schema.MustParseEDTD(schema.KindNRE, "root s\ns -> (a, b) | (b, a)"), Kernel: k}
	if ok, err := e.IsLocal(typing); err != nil || ok {
		t.Fatalf("s(a b) against s -> (a, b) | (b, a): local=%v err=%v, want false", ok, err)
	}
	e.Type = schema.MustParseEDTD(schema.KindNRE, "root s\ns -> a, b")
	if ok, err := e.IsLocal(typing); err != nil || !ok {
		t.Fatalf("s(a b) after replacing the type by s -> a, b: local=%v err=%v, want true", ok, err)
	}
}
