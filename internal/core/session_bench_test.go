package core

import (
	"os"
	"strings"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
)

// BenchmarkDesignSession runs the federation benchmark's design-batch
// sequence on a fresh design per iteration: ∃-loc with its local check,
// ∃-ml with every typing verified maximal local, ∃-perf with its perfect
// check. The designs are Figures 4, 5 and 6 and Example 5's word design,
// so B/op and allocs/op price what one design value derives once and
// reuses across its procedures. Run with:
//
//	go test ./internal/core/ -run '^$' -bench DesignSession -benchmem
func BenchmarkDesignSession(b *testing.B) {
	fig4 := schema.MustParseDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, nationalIndex*
		averages -> (Good, index+)+
		nationalIndex -> country, Good, (index | value, year)
		index -> value, year`)
	fig5 := schema.MustParseDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA* | natIndB*)
		averages -> (Good, index+)+
		natIndA -> country, Good, index
		natIndB -> country, Good, value, year
		index -> value, year`)
	fig6 := schema.MustParseEDTD(schema.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA, natIndB)+
		averages -> (Good, index+)+
		natIndA : nationalIndex -> country, Good, index
		natIndB : nationalIndex -> country, Good, value, year
		index -> value, year`)
	t0 := axml.MustParseKernel("eurostat(f0 f1 f2 f3)")
	t1 := axml.MustParseKernel("eurostat(f1 nationalIndex(f2) f3)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := dtdSession(b, &DTDDesign{Type: fig4, Kernel: t0}); got != (sessionAnswer{true, 1, true}) {
			b.Fatalf("Figure 4: %+v", got)
		}
		if got := dtdSession(b, &DTDDesign{Type: fig5, Kernel: t0}); got != (sessionAnswer{}) {
			b.Fatalf("Figure 5: %+v", got)
		}
		if got := edtdSession(b, &EDTDDesign{Type: fig6, Kernel: t1}); got != (sessionAnswer{true, 2, false}) {
			b.Fatalf("Figure 6: %+v", got)
		}
		if got := wordSession(b, MustWordDesign("(a b)+", "f1 f2")); got != (sessionAnswer{true, 3, false}) {
			b.Fatalf("Example 5: %+v", got)
		}
	}
}

// sessionAnswer is what one design session decided.
type sessionAnswer struct {
	local   bool
	ml      int
	perfect bool
}

func wordSession(tb testing.TB, d *WordDesign) (a sessionAnswer) {
	tb.Helper()
	local, ok := d.LocalTyping()
	if ok && !d.Local(local) {
		tb.Fatal("∃-loc typing is not local")
	}
	a.local = ok
	mls := d.MaximalLocalTypings()
	for _, ml := range mls {
		if yes, err := d.MaximalLocal(ml); err != nil || !yes {
			tb.Fatalf("∃-ml typing is not maximal local (err %v)", err)
		}
	}
	a.ml = len(mls)
	perfect, ok := d.PerfectTyping()
	if ok && !d.IsPerfect(perfect) {
		tb.Fatal("∃-perf typing is not perfect")
	}
	a.perfect = ok
	return a
}

func dtdSession(tb testing.TB, d *DTDDesign) (a sessionAnswer) {
	tb.Helper()
	local, ok := d.ExistsLocal()
	if ok {
		if yes, err := d.IsLocal(local); err != nil || !yes {
			tb.Fatalf("∃-loc typing is not local (err %v)", err)
		}
	}
	a.local = ok
	mls := d.MaximalLocalWordTypings()
	for _, wt := range mls {
		if yes, err := d.IsMaximalLocal(d.TypingFromWords(wt)); err != nil || !yes {
			tb.Fatalf("∃-ml typing is not maximal local (err %v)", err)
		}
	}
	a.ml = len(mls)
	perfect, ok := d.ExistsPerfect()
	if ok {
		if yes, err := d.IsPerfect(perfect); err != nil || !yes {
			tb.Fatalf("∃-perf typing is not perfect (err %v)", err)
		}
	}
	a.perfect = ok
	return a
}

func edtdSession(tb testing.TB, d *EDTDDesign) (a sessionAnswer) {
	tb.Helper()
	local, ok, err := d.ExistsLocal()
	if err != nil {
		tb.Fatal(err)
	}
	if ok {
		if yes, err := d.IsLocal(local); err != nil || !yes {
			tb.Fatalf("∃-loc typing is not local (err %v)", err)
		}
	}
	a.local = ok
	mls, err := d.MaximalLocalTypings()
	if err != nil {
		tb.Fatal(err)
	}
	for _, ml := range mls {
		if yes, err := d.IsMaximalLocal(ml); err != nil || !yes {
			tb.Fatalf("∃-ml typing is not maximal local (err %v)", err)
		}
	}
	a.ml = len(mls)
	perfect, ok, err := d.ExistsPerfect()
	if err != nil {
		tb.Fatal(err)
	}
	if ok {
		if yes, err := d.IsPerfect(perfect); err != nil || !yes {
			tb.Fatalf("∃-perf typing is not perfect (err %v)", err)
		}
	}
	a.perfect = ok
	return a
}

// BenchmarkEquivalenceEDTD prices the locality check of an EDTD design on
// its own: equivalence of the composed typing T(τn) with the global type
// τ, both ways, for the first maximal local typing of Figure 6's design
// (cmd/dxml/testdata/tauprimeprime.design). Run with:
//
//	go test ./internal/core/ -run '^$' -bench EquivalenceEDTD -benchmem
func BenchmarkEquivalenceEDTD(b *testing.B) {
	src, err := os.ReadFile("../../cmd/dxml/testdata/tauprimeprime.design")
	if err != nil {
		b.Fatal(err)
	}
	// The design file's kernel line and type block; the rest of the
	// format is the command's business.
	var kernel string
	var typ strings.Builder
	inType := false
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case inType && line == "end":
			inType = false
		case inType:
			typ.WriteString(line + "\n")
		case line == "type:":
			inType = true
		case strings.HasPrefix(line, "kernel "):
			kernel = strings.TrimPrefix(line, "kernel ")
		}
	}
	tau := schema.MustParseEDTD(schema.KindNRE, typ.String())
	k := axml.MustParseKernel(kernel)
	mls, err := (&EDTDDesign{Type: tau, Kernel: k}).MaximalLocalTypings()
	if err != nil || len(mls) == 0 {
		b.Fatalf("no maximal local typing (err %v)", err)
	}
	comp, err := Compose(k, mls[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, w := schema.EquivalentEDTD(comp, tau); !ok {
			b.Fatalf("T(τn) ≢ τ on %s", w)
		}
	}
}
