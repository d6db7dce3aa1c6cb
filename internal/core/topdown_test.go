package core

import (
	"strings"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
)

// eurostatDTD is the paper's Figure 3 global type τ.
func eurostatDTD(t testing.TB) *schema.DTD {
	t.Helper()
	d, err := schema.ParseW3CDTD(schema.KindNRE, `
		<!ELEMENT eurostat (averages, nationalIndex*)>
		<!ELEMENT averages (Good, index+)+>
		<!ELEMENT nationalIndex (country, Good, (index | value, year))>
		<!ELEMENT index (value, year)>
		<!ELEMENT country (#PCDATA)>
		<!ELEMENT Good (#PCDATA)>
		<!ELEMENT value (#PCDATA)>
		<!ELEMENT year (#PCDATA)>
	`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// eurostatKernel is T0 per DESIGN.md erratum E1: a docking point f0 for
// the EU-averages provider plus one per country.
func eurostatKernel() *axml.Kernel {
	return axml.MustParseKernel("eurostat(f0 f1 f2 f3)")
}

func TestEurostatPerfectTyping(t *testing.T) {
	// Figure 4: the design ⟨τ, T0⟩ has a perfect typing with
	// rootᵢ → nationalIndex* for the country functions.
	d := &DTDDesign{Type: eurostatDTD(t), Kernel: eurostatKernel()}
	typing, ok := d.ExistsPerfect()
	if !ok {
		t.Fatal("⟨τ, T0⟩ should admit a perfect typing (Figure 4)")
	}
	wantCountry := strlang.RegexNFA(strlang.MustParseRegex("nationalIndex*"))
	for i := 1; i <= 3; i++ {
		got := RootContent(typing[i])
		if ok, w := strlang.Equivalent(got, wantCountry); !ok {
			t.Errorf("country typing %d should be nationalIndex*, differs on %v (got %s)",
				i, w, strlang.RegexString(strlang.RegexFromNFA(got)))
		}
	}
	want0 := strlang.RegexNFA(strlang.MustParseRegex("averages nationalIndex*"))
	if ok, w := strlang.Equivalent(RootContent(typing[0]), want0); !ok {
		t.Errorf("f0's typing should be averages nationalIndex*, differs on %v", w)
	}
	// Verify the typing is indeed perfect and local through the
	// verification problems.
	if ok, err := d.IsPerfect(typing); err != nil || !ok {
		t.Errorf("IsPerfect rejects the computed perfect typing (err=%v)", err)
	}
	if ok, err := d.IsLocal(typing); err != nil || !ok {
		t.Errorf("IsLocal rejects the perfect typing (err=%v)", err)
	}
	if ok, err := d.IsMaximalLocal(typing); err != nil || !ok {
		t.Errorf("a perfect typing is maximal local (err=%v)", err)
	}
}

func TestEurostatBadDesign(t *testing.T) {
	// Figure 5: τ′ forces all countries onto one format; ⟨τ′, T0⟩ admits
	// no local typing.
	tauPrime := schema.MustParseDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA* | natIndB*)
		averages -> (Good, index+)+
		natIndA -> country, Good, index
		natIndB -> country, Good, value, year
		index -> value, year
	`)
	d := &DTDDesign{Type: tauPrime, Kernel: eurostatKernel()}
	if _, ok := d.ExistsLocal(); ok {
		t.Fatal("⟨τ′, T0⟩ should not admit a local typing")
	}
	if _, ok := d.ExistsPerfect(); ok {
		t.Error("⟨τ′, T0⟩ should not admit a perfect typing")
	}
	if _, ok := d.ExistsMaximalLocal(); ok {
		t.Error("⟨τ′, T0⟩ should not admit a maximal local typing")
	}
	// A sound (but incomplete) typing of course exists, e.g. all-A.
	soundTyping := DTDTyping(
		schema.MustParseDTD(schema.KindNRE, "root root1\nroot1 -> averages\naverages -> (Good, index+)+\nindex -> value, year"),
		schema.MustParseDTD(schema.KindNRE, "root root2\nroot2 -> natIndA*\nnatIndA -> country, Good, index\nindex -> value, year"),
		schema.MustParseDTD(schema.KindNRE, "root root3\nroot3 -> natIndA*\nnatIndA -> country, Good, index\nindex -> value, year"),
		schema.MustParseDTD(schema.KindNRE, "root root4\nroot4 -> natIndA*\nnatIndA -> country, Good, index\nindex -> value, year"),
	)
	comp, err := Compose(d.Kernel, soundTyping)
	if err != nil {
		t.Fatal(err)
	}
	if ok, w := schema.IncludedEDTD(comp, tauPrime.ToEDTD()); !ok {
		t.Errorf("all-A typing should be sound, witness %s", w)
	}
}

func TestEurostatLiteralReadingDiffers(t *testing.T) {
	// Under the literal Definition 12 (trivial {ε}-types allowed), even
	// τ′ has a “local” typing where one docking point grabs everything —
	// this is erratum E4's rationale for the default convention.
	tauPrime := schema.MustParseDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA* | natIndB*)
		averages -> (Good, index+)+
		natIndA -> country, Good, index
		natIndB -> country, Good, value, year
		index -> value, year
	`)
	d := &DTDDesign{Type: tauPrime, Kernel: eurostatKernel(), AllowTrivialTypes: true}
	if _, ok := d.ExistsLocal(); !ok {
		t.Error("the literal reading admits a degenerate local typing")
	}
}

func TestTauPrimePrimeTwoMaximalTypings(t *testing.T) {
	// Figure 6's τ″ over kernel T1 = eurostat(f1, nationalIndex(f2), f3):
	// no perfect typing; exactly two maximal local typings (Section 1,
	// with erratum E2's corrected τ″3.1).
	tau := schema.MustParseEDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA, natIndB)+
		averages -> (Good, index+)+
		natIndA : nationalIndex -> country, Good, index
		natIndB : nationalIndex -> country, Good, value, year
		index -> value, year
	`)
	kernel := axml.MustParseKernel("eurostat(f1 nationalIndex(f2) f3)")
	d := &EDTDDesign{Type: tau, Kernel: kernel}

	if _, ok, err := d.ExistsPerfect(); err != nil || ok {
		t.Fatalf("⟨τ″, T1⟩ should have no perfect typing (err=%v)", err)
	}
	typings, err := d.MaximalLocalTypings()
	if err != nil {
		t.Fatal(err)
	}
	if len(typings) != 2 {
		t.Fatalf("⟨τ″, T1⟩ has exactly two maximal local typings, got %d", len(typings))
	}

	// Project root contents to element names for comparison with the
	// paper's types (our normalized names differ syntactically).
	projected := func(typing Typing, i int) *strlang.NFA {
		return RootContent(typing[i]).MapSymbols(typing[i].Elem)
	}
	langs := func(srcs ...string) []*strlang.NFA {
		out := make([]*strlang.NFA, len(srcs))
		for i, s := range srcs {
			out[i] = strlang.RegexNFA(strlang.MustParseRegex(s))
		}
		return out
	}
	// Typing 1 (κ = natIndA): paper's τ″1.1, τ″2.1, and E2-corrected
	// τ″3.1 = natIndB, (natIndA natIndB)* — projected to element names:
	// nationalIndex everywhere.
	want1 := langs(
		"averages (nationalIndex nationalIndex)*",
		"country Good index",
		"nationalIndex (nationalIndex nationalIndex)*")
	// Typing 2 (κ = natIndB): τ″1.2, τ″2.2, τ″3.2.
	want2 := langs(
		"averages (nationalIndex nationalIndex)* nationalIndex",
		"country Good value year",
		"(nationalIndex nationalIndex)*")
	match := func(typing Typing, want []*strlang.NFA) bool {
		for i := range want {
			if ok, _ := strlang.Equivalent(projected(typing, i), want[i]); !ok {
				return false
			}
		}
		return true
	}
	found1, found2 := false, false
	for _, typing := range typings {
		if match(typing, want1) {
			found1 = true
		}
		if match(typing, want2) {
			found2 = true
		}
	}
	if !found1 {
		t.Error("paper's first maximal local typing (κ=natIndA) not found")
	}
	if !found2 {
		t.Error("paper's second maximal local typing (κ=natIndB) not found")
	}
	// Each enumerated typing must verify as maximal local.
	for i, typing := range typings {
		if ok, err := d.IsMaximalLocal(typing); err != nil || !ok {
			t.Errorf("typing %d fails its own verification (err=%v)", i, err)
		}
		if ok, err := d.IsPerfect(typing); err != nil || ok {
			t.Errorf("typing %d should not be perfect (err=%v)", i, err)
		}
	}
}

func TestExample7(t *testing.T) {
	// Example 7: T = s0(f1 f2); specializations b̃¹, b̃² overlap on b(g).
	// At the string level only two maximal local typings exist (one with a
	// trivial component); at the tree level the second becomes
	// (a1(b1)*+a2(b2)*, (b̃³)*) with [τ2(b̃³)] = b(g). The example uses a
	// trivial {ε} component, so the literal reading is enabled.
	tau := schema.MustParseEDTD(schema.KindNRE, `
		root s0
		s0 -> a1 b1* | a2 b2*
		a1 : a -> c
		a2 : a -> d
		b1 : b -> e | g
		b2 : b -> g | h
	`)
	kernel := axml.MustParseKernel("s0(f1 f2)")
	d := &EDTDDesign{Type: tau, Kernel: kernel, AllowTrivialTypes: true}
	typings, err := d.MaximalLocalTypings()
	if err != nil {
		t.Fatal(err)
	}
	if len(typings) != 2 {
		t.Fatalf("Example 7 has two maximal local tree typings, got %d", len(typings))
	}
	// One of them must type f2 with the forests (b(g))*: its root content
	// projects to b* and every b-tree in it carries exactly a g child.
	foundStar := false
	for _, typing := range typings {
		tau2 := typing[1]
		proj := RootContent(tau2).MapSymbols(tau2.Elem)
		if ok, _ := strlang.Equivalent(proj, strlang.RegexNFA(strlang.MustParseRegex("b*"))); !ok {
			continue
		}
		foundStar = true
		// Check the b-trees allowed under τ2 are exactly b(g): compose a
		// singleton kernel using τ2 and validate.
		if typing[0] == nil {
			t.Fatal("nil typing component")
		}
	}
	if !foundStar {
		t.Error("the tree-level typing ((…), (b̃³)*) of Example 7 not found")
	}
	// And the (ε, full) typing must also be there: some typing's first
	// component is {ε} (the empty forest).
	foundEps := false
	for _, typing := range typings {
		if ok, _ := strlang.Equivalent(RootContent(typing[0]), strlang.EpsLang()); ok {
			foundEps = true
		}
	}
	if !foundEps {
		t.Error("the (ε, a1(b1)*+a2(b2)*) typing of Example 7 not found")
	}
}

func TestExample8(t *testing.T) {
	// Example 8: normalized dRE-EDTD design with two successful κ's and
	// two substantially different maximal local typings; κ³ = {ã¹,ã²}
	// yields none.
	tau := schema.MustParseEDTD(schema.KindNRE, `
		root s0
		s0 -> (a1 a2)+
		a1 : a -> b
		a2 : a -> c
	`)
	kernel := axml.MustParseKernel("s0(f1 a(f2) f3)")
	d := &EDTDDesign{Type: tau, Kernel: kernel}
	typings, err := d.MaximalLocalTypings()
	if err != nil {
		t.Fatal(err)
	}
	if len(typings) != 2 {
		t.Fatalf("Example 8 has exactly two maximal local typings, got %d", len(typings))
	}
	if _, ok, err := d.ExistsPerfect(); err != nil || ok {
		t.Errorf("Example 8 should have no perfect typing (err=%v)", err)
	}
	// The two typings type f2 with b and with c respectively.
	var f2Langs []string
	for _, typing := range typings {
		proj := RootContent(typing[1]).MapSymbols(typing[1].Elem)
		f2Langs = append(f2Langs, strlang.RegexString(strlang.RegexFromNFA(proj)))
	}
	joined := strings.Join(f2Langs, " / ")
	if !(strings.Contains(joined, "b") && strings.Contains(joined, "c")) {
		t.Errorf("f2 should be typed b in one typing and c in the other, got %s", joined)
	}
	// ∃-loc and ∃-ml hold.
	if _, ok, err := d.ExistsLocal(); err != nil || !ok {
		t.Errorf("∃-loc should hold (err=%v)", err)
	}
	if _, ok, err := d.ExistsMaximalLocal(); err != nil || !ok {
		t.Errorf("∃-ml should hold (err=%v)", err)
	}
}

func TestTheorem48Reduction(t *testing.T) {
	// The reduction of Theorem 4.8: D admits a local typing iff τ′ ≡ τ″.
	build := func(tauP, tauPP string) *EDTDDesign {
		tau := schema.MustParseEDTD(schema.KindNRE, `
			root s0
			s0 -> a1 c1 d1 | b1 c1 d2
			a1 : a -> ε
			b1 : b -> ε
			c1 : c -> ε
			d1 : d -> `+tauP+`
			d2 : d -> `+tauPP+`
		`)
		return &EDTDDesign{
			Type:   tau,
			Kernel: axml.MustParseKernel("s0(f1 c f2)"),
		}
	}
	// Equivalent inner types: local typing exists.
	d := build("x y*", "x y*")
	if _, ok, err := d.ExistsLocal(); err != nil || !ok {
		t.Errorf("equivalent inner types should give a local typing (err=%v)", err)
	}
	if _, ok, err := d.ExistsPerfect(); err != nil || !ok {
		t.Errorf("…and a perfect one (err=%v)", err)
	}
	// Inequivalent: no local typing.
	d = build("x y*", "x y+")
	if _, ok, err := d.ExistsLocal(); err != nil || ok {
		t.Errorf("inequivalent inner types should give no local typing (err=%v)", err)
	}
}

func TestSDTDTopDown(t *testing.T) {
	// A single-type design where the same element a has different
	// contents in different contexts.
	tau := schema.MustParseEDTD(schema.KindNRE, `
		root s
		s -> a1, b1
		a1 : a -> x*
		b1 : b -> a2
		a2 : a -> y?
	`)
	kernel := axml.MustParseKernel("s(a(f1) b(a(f2)))")
	d := &SDTDDesign{Type: tau, Kernel: kernel}
	typing, ok := d.ExistsPerfect()
	if !ok {
		t.Fatal("SDTD design should have a perfect typing")
	}
	if ok, w := strlang.Equivalent(RootContent(typing[0]), strlang.RegexNFA(strlang.MustParseRegex("x*"))); !ok {
		t.Errorf("f1 should be typed x*, differs on %v", w)
	}
	if ok, w := strlang.Equivalent(RootContent(typing[1]), strlang.RegexNFA(strlang.MustParseRegex("y?"))); !ok {
		t.Errorf("f2 should be typed y?, differs on %v", w)
	}
	if ok, err := d.IsPerfect(typing); err != nil || !ok {
		t.Errorf("verification rejects the perfect typing (err=%v)", err)
	}
	if ok, err := d.IsLocal(typing); err != nil || !ok {
		t.Errorf("verification rejects locality (err=%v)", err)
	}
	// A kernel that does not fit the vertical language has no typing.
	badKernel := axml.MustParseKernel("s(b(f1) a)")
	bad := &SDTDDesign{Type: tau, Kernel: badKernel}
	if _, ok := bad.ExistsLocal(); ok {
		t.Error("mismatched kernel should have no local typing")
	}
}

func TestDTDVerificationProblems(t *testing.T) {
	// Example 3 lifted to trees: τ = s → a*bc*, T = s(f1 b f2).
	tau := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a* b c*")
	kernel := axml.MustParseKernel("s(f1 b f2)")
	d := &DTDDesign{Type: tau, Kernel: kernel}
	perfect := d.TypingFromWords(MustWordTyping("a*", "c*"))
	if ok, err := d.IsPerfect(perfect); err != nil || !ok {
		t.Errorf("(a*, c*) should be perfect (err=%v)", err)
	}
	smaller := d.TypingFromWords(MustWordTyping("a?", "c*"))
	if ok, err := d.IsLocal(smaller); err != nil || ok {
		t.Errorf("(a?, c*) is not local — incomplete (err=%v)", err)
	}
	// Example 2 lifted: two maximal local typings, neither perfect.
	tau2 := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a* b c*")
	kernel2 := axml.MustParseKernel("s(f1 f2)")
	d2 := &DTDDesign{Type: tau2, Kernel: kernel2}
	ml := d2.MaximalLocalWordTypings()
	if len(ml) != 2 {
		t.Fatalf("expected 2 maximal local typings, got %d", len(ml))
	}
	if _, ok := d2.ExistsPerfect(); ok {
		t.Error("no perfect typing should exist")
	}
	t1 := d2.TypingFromWords(MustWordTyping("a* b c*", "c*"))
	if ok, err := d2.IsMaximalLocal(t1); err != nil || !ok {
		t.Errorf("(a*bc*, c*) should be maximal local (err=%v)", err)
	}
	if ok, err := d2.IsPerfect(t1); err != nil || ok {
		t.Errorf("(a*bc*, c*) should not be perfect (err=%v)", err)
	}
	t3 := d2.TypingFromWords(MustWordTyping("a?", "a* b c*"))
	if ok, err := d2.IsMaximalLocal(t3); err != nil || ok {
		t.Errorf("(a?, a*bc*) should not be maximal (err=%v)", err)
	}
	if ok, err := d2.IsLocal(t3); err != nil || !ok {
		t.Errorf("(a?, a*bc*) should be local (err=%v)", err)
	}
}

func TestDTDMultiNodeFunctions(t *testing.T) {
	// Functions at two different depths: s(f1 a(f2)) with τ: s → b* a,
	// a → c*. Per-node designs: ⟨b* a, f1 a⟩ and ⟨c*, f2⟩.
	tau := schema.MustParseDTD(schema.KindNRE, "root s\ns -> b* a\na -> c*")
	kernel := axml.MustParseKernel("s(f1 a(f2))")
	d := &DTDDesign{Type: tau, Kernel: kernel}
	typing, ok := d.ExistsPerfect()
	if !ok {
		t.Fatal("perfect typing should exist")
	}
	if ok, w := strlang.Equivalent(RootContent(typing[0]), strlang.RegexNFA(strlang.MustParseRegex("b*"))); !ok {
		t.Errorf("f1 should be typed b*, differs on %v", w)
	}
	if ok, w := strlang.Equivalent(RootContent(typing[1]), strlang.RegexNFA(strlang.MustParseRegex("c*"))); !ok {
		t.Errorf("f2 should be typed c*, differs on %v", w)
	}
	if ok, err := d.IsPerfect(typing); err != nil || !ok {
		t.Errorf("verification rejects the perfect typing (err=%v)", err)
	}
}

func TestDTDFunctionUnderEmptyContent(t *testing.T) {
	// A docking point under a node whose content must be empty: the only
	// candidate typing is the trivial {ε}, excluded by the paper's
	// convention (DESIGN.md E4) — so no local typing by default, but one
	// under the literal reading.
	tau := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a") // a is a leaf
	kernel := axml.MustParseKernel("s(a(f1))")
	d := &DTDDesign{Type: tau, Kernel: kernel}
	if _, ok := d.ExistsLocal(); ok {
		t.Error("empty-content docking point should have no admissible local typing")
	}
	literal := &DTDDesign{Type: tau, Kernel: kernel, AllowTrivialTypes: true}
	typing, ok := literal.ExistsLocal()
	if !ok {
		t.Fatal("the literal reading should admit the {ε} typing")
	}
	if okEq, _ := strlang.Equivalent(RootContent(typing[0]), strlang.EpsLang()); !okEq {
		t.Error("the typing should be {ε}")
	}
}

func TestDTDKernelLabelUnknownToType(t *testing.T) {
	// A kernel using an element name the type never mentions: no typing
	// can make the design local (the type's language has no such nodes).
	tau := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a*")
	kernel := axml.MustParseKernel("s(zz(f1))")
	d := &DTDDesign{Type: tau, Kernel: kernel}
	if _, ok := d.ExistsLocal(); ok {
		t.Error("kernel outside the type's vertical language must not be local")
	}
}

func TestDTDFunctionFreeNodeConstraints(t *testing.T) {
	// Theorem 4.2: a function-free node needs a singleton content model
	// for locality.
	tau := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a b?\na -> c*")
	kernel := axml.MustParseKernel("s(a(f1) b)")
	d := &DTDDesign{Type: tau, Kernel: kernel}
	// π(s) = a b? is not the singleton {a b}: no local typing.
	if _, ok := d.ExistsLocal(); ok {
		t.Fatal("non-singleton function-free content must block locality")
	}
	tau2 := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a b\na -> c*")
	d2 := &DTDDesign{Type: tau2, Kernel: kernel}
	typing, ok := d2.ExistsPerfect()
	if !ok {
		t.Fatal("singleton contents should allow the perfect typing c*")
	}
	if ok, w := strlang.Equivalent(RootContent(typing[0]), strlang.RegexNFA(strlang.MustParseRegex("c*"))); !ok {
		t.Errorf("f1 should be typed c*, differs on %v", w)
	}
}

// TestMaximalLocalInnerNodeWithoutDockingPoint: a kernel node whose
// children carry no function contributes the single empty typing to the
// cross product of per-node maximal typings, not an empty set. Both
// designs have a perfect typing, so by Theorem 2.1 there is exactly one
// maximal local typing.
func TestMaximalLocalInnerNodeWithoutDockingPoint(t *testing.T) {
	dtd := &DTDDesign{
		Type:   schema.MustParseDTD(schema.KindNRE, "root s\ns -> a b\na -> c?\nb -> ε"),
		Kernel: axml.MustParseKernel("s(a(f1) b)"),
	}
	if _, ok := dtd.ExistsLocal(); !ok {
		t.Fatal("DTD: ∃-loc should hold")
	}
	if _, ok := dtd.ExistsPerfect(); !ok {
		t.Fatal("DTD: ∃-perf should hold")
	}
	mls := dtd.MaximalLocalWordTypings()
	if len(mls) != 1 {
		t.Fatalf("DTD: %d maximal local typings, want exactly 1 (Thm 2.1)", len(mls))
	}
	if ok, err := dtd.IsMaximalLocal(dtd.TypingFromWords(mls[0])); err != nil || !ok {
		t.Fatalf("DTD: enumerated typing is not maximal local (err=%v)", err)
	}

	edtd := &EDTDDesign{
		Type: schema.MustParseEDTD(schema.KindNRE, `
			root s
			s -> a1, a2
			a1 : a -> c*
			a2 : a -> d`),
		Kernel: axml.MustParseKernel("s(a(f1) a(f2))"),
	}
	if _, ok, err := edtd.ExistsLocal(); err != nil || !ok {
		t.Fatalf("EDTD: ∃-loc should hold (err=%v)", err)
	}
	if _, ok, err := edtd.ExistsPerfect(); err != nil || !ok {
		t.Fatalf("EDTD: ∃-perf should hold (err=%v)", err)
	}
	typings, err := edtd.MaximalLocalTypings()
	if err != nil || len(typings) != 1 {
		t.Fatalf("EDTD: %d maximal local typings (err=%v), want exactly 1 (Thm 2.1)", len(typings), err)
	}
	if ok, err := edtd.IsMaximalLocal(typings[0]); err != nil || !ok {
		t.Fatalf("EDTD: enumerated typing is not maximal local (err=%v)", err)
	}
}
