package uta_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/core"
	"dxml/internal/schema"
	"dxml/internal/uta"
)

// TestIncludedMatchesOracleOnDesigns runs Included against the oracle on
// the tree inclusions the design procedures decide: for the EDTD and DTD
// design families of internal/core's fuzz tests and the benchmark grid,
// every typing the procedures return is composed, and its T(τn) is
// checked against the global type both ways and against the other
// typings' compositions; random typings over the consistency-test
// kernels are checked against each other.
func TestIncludedMatchesOracleOnDesigns(t *testing.T) {
	checks, held := 0, 0
	check := func(label string, a, b *schema.EDTD) {
		t.Helper()
		na, _ := a.ToNUTA()
		nb, _ := b.ToNUTA()
		checks++
		ok, w := uta.Included(na, nb)
		wantOK, wantW := uta.OracleIncluded(na, nb)
		if ok != wantOK {
			t.Fatalf("%s: Included = %v, oracle %v (oracle witness %s)", label, ok, wantOK, wantW)
		}
		if ok {
			held++
			return
		}
		if !na.Accepts(w) || nb.Accepts(w) {
			t.Fatalf("%s: witness %s is not in [a] − [b]", label, w)
		}
	}
	checkTypings := func(label string, k *axml.Kernel, typ *schema.EDTD, typings []core.Typing) {
		var comps []*schema.EDTD
		for ti, typing := range typings {
			comp, err := core.Compose(k, typing)
			if err != nil {
				t.Fatalf("%s: Compose: %v", label, err)
			}
			l := fmt.Sprintf("%s typing %d", label, ti)
			check(l+": T(τn) ⊆ τ", comp, typ)
			check(l+": τ ⊆ T(τn)", typ, comp)
			for tj, other := range comps {
				check(fmt.Sprintf("%s ⊆ typing %d", l, tj), comp, other)
				check(fmt.Sprintf("typing %d ⊆ %s", tj, l), other, comp)
			}
			comps = append(comps, comp)
		}
	}

	// The EDTD grid of the design benchmark.
	for _, root := range []string{"a1*", "a1, a2", "(a1 | a2)*", "a1+, a2?", "a2, a1*"} {
		for _, a1 := range []string{"c*", "c?, d"} {
			for _, a2 := range []string{"d", "c, d*"} {
				for _, kSrc := range []string{"s(f1)", "s(f1 a(f2))", "s(a(f1) f2)"} {
					typ := schema.MustParseEDTD(schema.KindNRE, fmt.Sprintf("root s\ns -> %s\na1 : a -> %s\na2 : a -> %s", root, a1, a2))
					k := axml.MustParseKernel(kSrc)
					d := &core.EDTDDesign{Type: typ, Kernel: k}
					label := fmt.Sprintf("τ(s)=%s a1=%s a2=%s T=%s", root, a1, a2, kSrc)
					var typings []core.Typing
					if local, ok, err := d.ExistsLocal(); err != nil {
						t.Fatalf("%s: ExistsLocal: %v", label, err)
					} else if ok {
						typings = append(typings, local)
					}
					mls, err := d.MaximalLocalTypings()
					if err != nil {
						t.Fatalf("%s: MaximalLocalTypings: %v", label, err)
					}
					typings = append(typings, mls...)
					checkTypings(label, k, typ, typings)
				}
			}
		}
	}

	// The DTD designs of TestFuzzDTDDesignSelfConsistency.
	r := rand.New(rand.NewSource(777))
	kernels := []string{"s(f1)", "s(a f1)", "s(f1 f2)", "s(a(f1) b)", "s(a(f1) f2)"}
	roots := []string{"a* b?", "a b", "a*", "a | b", "a+ b*"}
	for trial := 0; trial < 30; trial++ {
		kSrc := kernels[r.Intn(len(kernels))]
		rootContent := roots[r.Intn(len(roots))]
		dtd := schema.MustParseDTD(schema.KindNRE, fmt.Sprintf("root s\ns -> %s\na -> c?\nb -> ε", rootContent))
		k := axml.MustParseKernel(kSrc)
		d := &core.DTDDesign{Type: dtd, Kernel: k}
		var typings []core.Typing
		if local, ok := d.ExistsLocal(); ok {
			typings = append(typings, local)
		}
		for _, wt := range d.MaximalLocalWordTypings() {
			typings = append(typings, d.TypingFromWords(wt))
		}
		checkTypings(fmt.Sprintf("τ(s)=%s T=%s", rootContent, kSrc), k, dtd.ToEDTD(), typings)
	}

	// Random typings of TestFuzzConsDifferential, composed on one kernel.
	r = rand.New(rand.NewSource(999))
	consKernels := []string{"s0(f1)", "s0(a f1)", "s0(f1 f2)", "s0(a(f1) b(f2))", "s0(f1 a(f2))", "s0(a(b f1) f2)"}
	contents := []string{"b*", "b", "b?", "b c", "c*", "b | c", "ε"}
	subRules := []string{"", "\nb -> d?", "\nb -> d*", "\nc -> d"}
	randomTyping := func(k *axml.Kernel) core.Typing {
		typing := make(core.Typing, k.NumFuncs())
		for i := range typing {
			src := fmt.Sprintf("root s%d\ns%d -> %s%s", i+1, i+1, contents[r.Intn(len(contents))], subRules[r.Intn(len(subRules))])
			typing[i] = schema.MustParseEDTD(schema.KindNRE, src)
		}
		return typing
	}
	for trial := 0; trial < 40; trial++ {
		kSrc := consKernels[r.Intn(len(consKernels))]
		k := axml.MustParseKernel(kSrc)
		x, err := core.Compose(k, randomTyping(k))
		if err != nil {
			t.Fatal(err)
		}
		y, err := core.Compose(k, randomTyping(k))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d T=%s", trial, kSrc)
		check(label+": x ⊆ y", x, y)
		check(label+": y ⊆ x", y, x)
	}
	t.Logf("%d of %d inclusions held", held, checks)
	if held == 0 || held == checks {
		t.Fatalf("%d of %d inclusions held; both outcomes must occur", held, checks)
	}
}
