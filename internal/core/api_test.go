package core

import (
	"strings"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

func TestConsEDTDAllKinds(t *testing.T) {
	k := axml.MustParseKernel("s0(a f1 c f2)")
	typing := DTDTyping(
		schema.MustParseDTD(schema.KindDRE, "root s1\ns1 -> b*"),
		schema.MustParseDTD(schema.KindDRE, "root s2\ns2 -> d*"),
	)
	for _, kind := range schema.AllKinds {
		e, err := ConsEDTD(k, typing, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.Kind != kind {
			t.Errorf("%s: result kind %s", kind, e.Kind)
		}
		// Corollary 3.3: the result is always equivalent to T(τn).
		comp, _ := Compose(k, typing)
		if ok, w := schema.EquivalentEDTD(e, comp); !ok {
			t.Errorf("%s: typeT differs from T(τn) on %s", kind, w)
		}
		if err := e.Validate(xmltree.MustParse("s0(a b b c d)")); err != nil {
			t.Errorf("%s: valid extension rejected: %v", kind, err)
		}
	}
}

func TestExtensionLangAlias(t *testing.T) {
	k := axml.MustParseKernel("s0(f1)")
	typing := DTDTyping(schema.MustParseDTD(schema.KindNRE, "root s1\ns1 -> a"))
	e, err := ExtensionLang(k, typing)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(xmltree.MustParse("s0(a)")); err != nil {
		t.Errorf("extension language wrong: %v", err)
	}
}

func TestValidExtension(t *testing.T) {
	k := axml.MustParseKernel("s0(f1 f2)")
	typing := DTDTyping(
		schema.MustParseDTD(schema.KindNRE, "root s1\ns1 -> a"),
		schema.MustParseDTD(schema.KindNRE, "root s2\ns2 -> b*"),
	)
	good := map[string]*xmltree.Tree{
		"f1": xmltree.MustParse("s1(a)"),
		"f2": xmltree.MustParse("s2(b b)"),
	}
	if !ValidExtension(k.Funcs(), typing, good) {
		t.Error("valid extension rejected")
	}
	bad := map[string]*xmltree.Tree{
		"f1": xmltree.MustParse("s1(b)"),
		"f2": xmltree.MustParse("s2"),
	}
	if ValidExtension(k.Funcs(), typing, bad) {
		t.Error("invalid extension accepted")
	}
	if ValidExtension(k.Funcs(), typing, map[string]*xmltree.Tree{"f1": good["f1"]}) {
		t.Error("missing function accepted")
	}
}

func TestWordExistsMaximalLocal(t *testing.T) {
	d := MustWordDesign("(a b)+", "f1 f2")
	typ, ok := d.ExistsMaximalLocal()
	if !ok {
		t.Fatal("∃-ml should hold for Example 5")
	}
	if okV, err := d.MaximalLocal(typ); err != nil || !okV {
		t.Errorf("returned typing fails verification (err=%v)", err)
	}
	d2 := MustWordDesign("a b | b a", "f1 f2")
	if _, ok := d2.ExistsMaximalLocal(); ok {
		t.Error("Example 11 has no maximal local typing")
	}
}

func TestSDTDMaximalLocalEnumeration(t *testing.T) {
	// An SDTD design with a genuine choice at one node: Example 2's shape
	// inside a single-type tree.
	tau := schema.MustParseEDTD(schema.KindNRE, `
		root s
		s -> a1*, b1, c1*
		a1 : a -> ε
		b1 : b -> ε
		c1 : c -> ε
	`)
	kernel := axml.MustParseKernel("s(f1 f2)")
	d := &SDTDDesign{Type: tau, Kernel: kernel}
	ts := d.MaximalLocalWordTypings()
	if len(ts) != 2 {
		t.Fatalf("expected 2 maximal local typings, got %d", len(ts))
	}
	typ, ok := d.ExistsMaximalLocal()
	if !ok {
		t.Fatal("∃-ml should hold")
	}
	okV, err := d.IsMaximalLocal(typ)
	if err != nil || !okV {
		t.Errorf("returned typing fails verification (err=%v)", err)
	}
	// The non-maximal local typing is rejected.
	smaller := d.TypingFromWords(MustWordTyping("a1?", "a1* b1 c1*"))
	okV, err = d.IsMaximalLocal(smaller)
	if err != nil || okV {
		t.Errorf("non-maximal typing accepted (err=%v)", err)
	}
}

func TestPerfectAutomatonString(t *testing.T) {
	d := MustWordDesign("a* b c*", "f1 b f2")
	s := d.Perfect().String()
	if !strings.Contains(s, "Aut(Ω1)") || !strings.Contains(s, "Aut(Ω2)") {
		t.Errorf("String() = %q", s)
	}
}

func TestBoxDesignDirect(t *testing.T) {
	// Section 7 boxes used directly: B = {a,b} f1 {c}, τ = (a|b) d* c.
	kb, err := axml.NewKernelBox(
		[]strlang.Box{{{"a", "b"}}, {{"c"}}},
		[]string{"f1"},
	)
	if err != nil {
		t.Fatal(err)
	}
	target := strlang.RegexNFA(strlang.MustParseRegex("(a|b) d* c"))
	d := NewBoxDesign(target, kb)
	typ, ok := d.PerfectTyping()
	if !ok {
		t.Fatal("box design should have a perfect typing")
	}
	want := strlang.RegexNFA(strlang.MustParseRegex("d*"))
	if ok, w := strlang.Equivalent(typ[0], want); !ok {
		t.Errorf("perfect typing should be d*, differs on %v", w)
	}
	// A box where the set position discriminates: Example 8's κ³
	// situation — {a1,a2} between two functions kills locality.
	kb2, _ := axml.NewKernelBox(
		[]strlang.Box{{}, {{"a1", "a2"}}, {}},
		[]string{"f1", "f2"},
	)
	target2 := strlang.RegexNFA(strlang.MustParseRegex("(a1 a2)+"))
	d2 := NewBoxDesign(target2, kb2)
	if _, ok := d2.LocalTyping(); ok {
		t.Error("mixed-set box design should have no local typing")
	}
	// With the singleton {a1} it works.
	kb3, _ := axml.NewKernelBox(
		[]strlang.Box{{}, {{"a1"}}, {}},
		[]string{"f1", "f2"},
	)
	d3 := NewBoxDesign(target2, kb3)
	if _, ok := d3.LocalTyping(); !ok {
		t.Error("singleton box design should have a local typing")
	}
}

func TestEDTDIsMaximalLocalRejects(t *testing.T) {
	tau := schema.MustParseEDTD(schema.KindNRE, `
		root s0
		s0 -> (a1 a2)+
		a1 : a -> b
		a2 : a -> c
	`)
	kernel := axml.MustParseKernel("s0(f1 a(f2) f3)")
	d := &EDTDDesign{Type: tau, Kernel: kernel}
	// A local-but-not-maximal typing: shrink one component of a maximal
	// one is hard to do while keeping locality, so instead check that a
	// non-local typing is rejected.
	norm, err := d.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	bogus := make(Typing, 3)
	for i := range bogus {
		bogus[i] = typeFor(norm, i, strlang.EpsLang())
	}
	ok, err := d.IsMaximalLocal(bogus)
	if err != nil || ok {
		t.Errorf("bogus typing accepted (err=%v)", err)
	}
	if ok, err := d.IsLocal(bogus); err != nil || ok {
		t.Errorf("bogus typing judged local (err=%v)", err)
	}
}
