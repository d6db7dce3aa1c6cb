package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// Randomized self-consistency tests: the decision procedures must agree
// with each other and with their definitions on random designs. These are
// the strongest correctness net in the repository — every inconsistency
// between the constructive solvers (∃-problems) and the verification
// problems is a bug.

// TestFuzzWordDesignSelfConsistency: on random word designs,
//   - LocalTyping's result verifies as local;
//   - every MaximalLocalTypings result verifies as maximal local;
//   - PerfectTyping's result verifies as perfect, and perfect implies a
//     unique maximal local typing (Theorem 2.1);
//   - if no local typing exists, MaximalLocalTypings is empty.
func TestFuzzWordDesignSelfConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	kernels := []string{"f1", "a f1", "f1 f2", "f1 b f2", "a f1 c f2"}
	for trial := 0; trial < 80; trial++ {
		re := randomWordRegex(r, 2)
		kernel := kernels[r.Intn(len(kernels))]
		d := MustWordDesign(re, kernel)
		label := fmt.Sprintf("τ=%s w=%s", re, kernel)

		local, hasLocal := d.LocalTyping()
		if hasLocal && !d.Local(local) {
			t.Fatalf("%s: LocalTyping returned a non-local typing", label)
		}
		mls := d.MaximalLocalTypings()
		if hasLocal != (len(mls) > 0) {
			t.Fatalf("%s: ∃-loc=%v but %d maximal local typings (∃-loc ⟺ ∃-ml for nFAs)",
				label, hasLocal, len(mls))
		}
		for _, ml := range mls {
			ok, err := d.MaximalLocal(ml)
			if err != nil || !ok {
				t.Fatalf("%s: enumerated maximal local typing fails verification (err=%v)", label, err)
			}
		}
		perfect, hasPerfect := d.PerfectTyping()
		if hasPerfect {
			if !d.IsPerfect(perfect) {
				t.Fatalf("%s: PerfectTyping result fails IsPerfect", label)
			}
			if len(mls) != 1 {
				t.Fatalf("%s: perfect exists but %d maximal local typings (Thm 2.1)", label, len(mls))
			}
			if !EquivWord(mls[0], perfect) {
				t.Fatalf("%s: unique maximal local ≠ perfect", label)
			}
		}
		// Quasi-perfect is implied by perfect.
		if hasPerfect {
			qp, ok := d.QuasiPerfectTyping()
			if !ok || !EquivWord(qp, perfect) {
				t.Fatalf("%s: perfect design must be quasi-perfect with the same typing", label)
			}
		}
	}
}

// TestFuzzConsDifferential: the merge-based cons deciders agree with the
// candidate-and-verify oracles on random kernels and typings.
func TestFuzzConsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(999))
	kernels := []string{
		"s0(f1)", "s0(a f1)", "s0(f1 f2)", "s0(a(f1) b(f2))",
		"s0(a(f1) a(f2))", "s0(f1 a(f2))", "s0(a(b f1) f2)",
	}
	contents := []string{"b*", "b", "b?", "b c", "c*", "b | c", "ε"}
	subRules := []string{"", "\nb -> d?", "\nb -> d*", "\nc -> d"}
	for trial := 0; trial < 60; trial++ {
		kSrc := kernels[r.Intn(len(kernels))]
		k := axml.MustParseKernel(kSrc)
		typing := make(Typing, k.NumFuncs())
		var desc []string
		for i := range typing {
			content := contents[r.Intn(len(contents))]
			sub := subRules[r.Intn(len(subRules))]
			src := fmt.Sprintf("root s%d\ns%d -> %s%s", i+1, i+1, content, sub)
			typing[i] = schema.MustParseEDTD(schema.KindNRE, src).Clone()
			desc = append(desc, content+sub)
		}
		label := fmt.Sprintf("T=%s typing=%v", kSrc, desc)

		merge, err := ConsSDTD(k, typing, schema.KindNFA)
		if err != nil {
			t.Fatalf("%s: ConsSDTD: %v", label, err)
		}
		oracle, err := ConsSDTDCandidate(k, typing)
		if err != nil {
			t.Fatalf("%s: ConsSDTDCandidate: %v", label, err)
		}
		if merge.Consistent != oracle.Consistent {
			t.Fatalf("%s: SDTD deciders disagree (merge=%v oracle=%v; %s | %s)",
				label, merge.Consistent, oracle.Consistent, merge.Reason, oracle.Reason)
		}
		if merge.Consistent {
			if ok, w := schema.EquivalentEDTD(merge.EDTD, oracle.EDTD); !ok {
				t.Fatalf("%s: typeT versions differ on %s", label, w)
			}
			// typeT must be equivalent to T(τn) (Definition 11).
			comp, _ := Compose(k, typing)
			if ok, w := schema.EquivalentEDTD(merge.EDTD, comp); !ok {
				t.Fatalf("%s: typeT ≠ T(τn) on %s", label, w)
			}
		}
		mergeDTD, err := ConsDTD(k, typing, schema.KindNFA)
		if err != nil {
			t.Fatalf("%s: ConsDTD: %v", label, err)
		}
		oracleDTD, err := ConsDTDCandidate(k, typing)
		if err != nil {
			t.Fatalf("%s: ConsDTDCandidate: %v", label, err)
		}
		if mergeDTD.Consistent != oracleDTD.Consistent {
			t.Fatalf("%s: DTD deciders disagree (merge=%v oracle=%v; %s | %s)",
				label, mergeDTD.Consistent, oracleDTD.Consistent, mergeDTD.Reason, oracleDTD.Reason)
		}
		// DTD-consistency implies SDTD-consistency (DTDs are SDTDs).
		if mergeDTD.Consistent && !merge.Consistent {
			t.Fatalf("%s: DTD-consistent but not SDTD-consistent", label)
		}
	}
}

// TestFuzzComposeSemantics: random extensions validate against T(τn) iff
// every component is locally valid (Theorem 3.2, both directions sampled).
func TestFuzzComposeSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	k := axml.MustParseKernel("s0(a f1 b(f2))")
	typing := Typing{
		schema.MustParseEDTD(schema.KindNRE, "root s1\ns1 -> c*\nc : c -> d?"),
		schema.MustParseEDTD(schema.KindNRE, "root s2\ns2 -> c c | ε\nc : c -> d?"),
	}
	comp, err := Compose(k, typing)
	if err != nil {
		t.Fatal(err)
	}
	genC := func() *xmltree.Tree {
		c := xmltree.Leaf("c")
		if r.Intn(2) == 0 {
			c.Children = append(c.Children, xmltree.Leaf("d"))
		}
		return c
	}
	genForest := func(root string, sizes []int) *xmltree.Tree {
		tr := xmltree.New(root)
		n := sizes[r.Intn(len(sizes))]
		for i := 0; i < n; i++ {
			tr.Children = append(tr.Children, genC())
		}
		return tr
	}
	for trial := 0; trial < 200; trial++ {
		t1 := genForest("s1", []int{0, 1, 2, 3})
		t2 := genForest("s2", []int{0, 1, 2, 3})
		// Occasionally corrupt a subtree.
		if r.Intn(3) == 0 {
			victim := t1
			if r.Intn(2) == 0 {
				victim = t2
			}
			victim.Children = append(victim.Children, xmltree.Leaf("z"))
		}
		locallyValid := typing[0].Validate(t1) == nil && typing[1].Validate(t2) == nil
		ext := k.MustExtend(map[string]*xmltree.Tree{"f1": t1, "f2": t2})
		globallyValid := comp.Validate(ext) == nil
		if locallyValid != globallyValid {
			t.Fatalf("Theorem 3.2 violated on t1=%s t2=%s: local=%v global=%v",
				t1, t2, locallyValid, globallyValid)
		}
	}
}

// TestFuzzDTDDesignSelfConsistency: random DTD tree designs — existence
// results verify, and the composed typing is D-consistent.
func TestFuzzDTDDesignSelfConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	kernels := []string{"s(f1)", "s(a f1)", "s(f1 f2)", "s(a(f1) b)", "s(a(f1) f2)"}
	roots := []string{"a* b?", "a b", "a*", "a | b", "a+ b*"}
	for trial := 0; trial < 50; trial++ {
		kSrc := kernels[r.Intn(len(kernels))]
		rootContent := roots[r.Intn(len(roots))]
		tau := schema.MustParseDTD(schema.KindNRE,
			fmt.Sprintf("root s\ns -> %s\na -> c?\nb -> ε", rootContent))
		k := axml.MustParseKernel(kSrc)
		d := &DTDDesign{Type: tau, Kernel: k}
		label := fmt.Sprintf("τ(s)=%s T=%s", rootContent, kSrc)

		typing, hasLocal := d.ExistsLocal()
		if hasLocal {
			ok, err := d.IsLocal(typing)
			if err != nil {
				t.Fatalf("%s: IsLocal: %v", label, err)
			}
			if !ok {
				t.Fatalf("%s: ExistsLocal result fails IsLocal", label)
			}
		}
		perfect, hasPerfect := d.ExistsPerfect()
		if hasPerfect {
			if !hasLocal {
				t.Fatalf("%s: perfect without local", label)
			}
			ok, err := d.IsPerfect(perfect)
			if err != nil || !ok {
				t.Fatalf("%s: ExistsPerfect result fails IsPerfect (err=%v)", label, err)
			}
			ok, err = d.IsMaximalLocal(perfect)
			if err != nil || !ok {
				t.Fatalf("%s: perfect must be maximal local (err=%v)", label, err)
			}
		}
		mls := d.MaximalLocalWordTypings()
		for _, wt := range mls {
			ty := d.TypingFromWords(wt)
			ok, err := d.IsMaximalLocal(ty)
			if err != nil || !ok {
				t.Fatalf("%s: enumerated ml typing fails verification (err=%v)", label, err)
			}
		}
		// Theorem 2.1: a perfect typing is the unique maximal local one.
		if hasPerfect && len(mls) != 1 {
			t.Fatalf("%s: perfect exists but %d maximal local typings (Thm 2.1)", label, len(mls))
		}
	}
}

// TestFuzzSoundTypingsBelowOmega re-checks Theorem 6.3 on cell-union
// sound typings directly (beyond the chain typings of TestOmegaInvariants).
func TestFuzzSoundTypingsBelowOmega(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		re := randomWordRegex(r, 2)
		d := MustWordDesign(re, "f1 f2")
		if !d.Perfect().Compatible() {
			continue
		}
		omega := d.Perfect().TypingOmega()
		for _, typ := range d.MaximalSoundTypings() {
			if !LeqWord(typ, omega) {
				t.Fatalf("τ=%s: maximal sound typing not ≤ (Ωn)", re)
			}
			if ok, w := d.Sound(typ); !ok {
				t.Fatalf("τ=%s: MaximalSoundTypings returned unsound typing (witness %v)", re, w)
			}
			ok, err := d.MaximalSound(typ)
			if err != nil || !ok {
				t.Fatalf("τ=%s: maximal sound typing fails its own verification (err=%v)", re, err)
			}
		}
	}
}
