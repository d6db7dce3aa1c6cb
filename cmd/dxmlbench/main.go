// Command dxmlbench regenerates the paper's tables and figures on
// parameterized instance families. It does not match the authors'
// absolute constants (the paper reports asymptotic complexity, not wall
// times); what it reproduces is the shape: which problems/classes are
// easy, where the exponential cliffs are, and the concrete answers of
// every worked example.
//
// Usage: dxmlbench -exp all|table1|table2|table3|fig4|fig5|fig6|fig7|fig8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dxml"
)

// experiments are the runnable experiments, in the order -exp all runs
// them.
var experiments = []struct {
	name string
	run  func(io.Writer)
}{
	{"table1", table1},
	{"table2", table2},
	{"table3", table3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	flag.Parse()
	for _, e := range experiments {
		switch *exp {
		case "all":
			fmt.Printf("######## %s ########\n", e.name)
			e.run(os.Stdout)
			fmt.Println()
		case e.name:
			e.run(os.Stdout)
			return
		}
	}
	if *exp != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// table1 exhibits the expressiveness hierarchy of the schema abstractions
// (paper Table 1): dRE-DTDs ⊊ local tree languages = R-DTDs ⊊ single-type
// ⊊ regular.
func table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — expressiveness separations (machine-checked witnesses)")

	// (1) dRE-DTD < nRE-DTD: a local tree language whose content model is
	// not one-unambiguous.
	lang := dxml.RegexNFA(dxml.MustParseRegex("(a|b)* a (a|b)"))
	fmt.Fprintf(w, "  content (a|b)*a(a|b): one-unambiguous=%v → expressible as nRE-DTD but NOT dRE-DTD\n",
		dxml.OneUnambiguous(lang))

	// (2) DTD < SDTD: context-dependent content (x under a vs under b).
	sdtd := dxml.MustParseEDTD(dxml.KindNRE, `
		root s
		s -> a1, b1
		a1 : a -> x1
		x1 : x -> y
		b1 : b -> x2
		x2 : x -> z
	`)
	k := dxml.MustParseKernel("s(a(f1) b(f2))")
	typing := dxml.DTDTyping(
		dxml.MustParseDTD(dxml.KindNRE, "root s1\ns1 -> x*\nx -> y"),
		dxml.MustParseDTD(dxml.KindNRE, "root s2\ns2 -> x*\nx -> z"),
	)
	dres, _ := dxml.ConsDTD(k, typing, dxml.KindNFA)
	sres, _ := dxml.ConsSDTD(k, typing, dxml.KindNFA)
	fmt.Fprintf(w, "  context-dependent x-content: cons[SDTD]=%v, cons[DTD]=%v → SDTDs ⊋ DTDs\n",
		sres.Consistent, dres.Consistent)
	_ = sdtd

	// (3) SDTD < EDTD: position-dependent content (first a vs second a).
	k2 := dxml.MustParseKernel("s0(a(f1) a(f2))")
	typing2 := dxml.DTDTyping(
		dxml.MustParseDTD(dxml.KindNRE, "root s1\ns1 -> b"),
		dxml.MustParseDTD(dxml.KindNRE, "root s2\ns2 -> c"),
	)
	sres2, _ := dxml.ConsSDTD(k2, typing2, dxml.KindNFA)
	fmt.Fprintf(w, "  position-dependent a-content: cons[EDTD]=true (always), cons[SDTD]=%v → EDTDs ⊋ SDTDs\n",
		sres2.Consistent)
}

// table2 measures cons[S] outcomes and typeT(τn) sizes across the R×S
// grid on size families — reproducing the Θ(m), Θ(m²), Θ(2^m) size rows.
func table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2 — cons[S] and worst-case |typeT(τn)| vs m (input size)")
	fmt.Fprintln(w, "family: [τ1]=(a|b)*a, [τ2]=(a|b)^m over T=s0(f1 f2)  (dFA concat blow-up)")
	fmt.Fprintf(w, "  %-4s %10s %10s %10s %14s\n", "m", "|input|", "nFA", "dFA", "dFA/2^m")
	for m := 2; m <= 9; m++ {
		re2 := strings.TrimSuffix(strings.Repeat("(a|b) ", m), " ")
		k := dxml.MustParseKernel("s0(f1 f2)")
		ty := dxml.DTDTyping(
			dxml.MustParseDTD(dxml.KindDFA, "root s1\ns1 -> (a|b)* a"),
			dxml.MustParseDTD(dxml.KindDFA, "root s2\ns2 -> "+re2),
		)
		inSize := ty[0].Size() + ty[1].Size()
		nres, err := dxml.ConsDTD(k, ty, dxml.KindNFA)
		must(err)
		dres, err := dxml.ConsDTD(k, ty, dxml.KindDFA)
		must(err)
		nSize := nres.DTD.Size()
		dSize := dres.DTD.Size()
		fmt.Fprintf(w, "  %-4d %10d %10d %10d %14.2f\n", m, inSize, nSize, dSize,
			float64(dSize)/float64(int(1)<<m))
	}
	fmt.Fprintln(w, "  → nFA column grows linearly (Θ(m)); dFA column doubles per step (Θ(2^m))")

	fmt.Fprintln(w, "\nfamily: dRE typing (b*, d*) over T=s0(a f1 c f2) scaled by alphabet width")
	fmt.Fprintf(w, "  %-4s %10s %12s %12s\n", "w", "|input|", "consistent", "|typeT| dRE")
	for width := 1; width <= 5; width++ {
		var syms []string
		for i := 0; i < width; i++ {
			syms = append(syms, fmt.Sprintf("b%d", i))
		}
		re := "(" + strings.Join(syms, " | ") + ")*"
		k := dxml.MustParseKernel("s0(a f1 c f2)")
		ty := dxml.DTDTyping(
			dxml.MustParseDTD(dxml.KindDRE, "root s1\ns1 -> "+re),
			dxml.MustParseDTD(dxml.KindDRE, "root s2\ns2 -> d*"),
		)
		res, err := dxml.ConsDTD(k, ty, dxml.KindDRE)
		must(err)
		size := 0
		if res.Consistent {
			size = res.DTD.Size()
		}
		fmt.Fprintf(w, "  %-4d %10d %12v %12d\n", width, ty[0].Size()+ty[1].Size(), res.Consistent, size)
	}
	fmt.Fprintln(w, "  → the dRE rows stay linear when contents do not interleave (Cor. 3.3 shape)")

	fmt.Fprintln(w, "\nEDTD column: cons[R-EDTD] is constant-time 'yes' (Cor. 3.3); dFA-EDTD typeT is ≤ quadratic:")
	for m := 2; m <= 6; m++ {
		re2 := strings.TrimSuffix(strings.Repeat("(a|b) ", m), " ")
		k := dxml.MustParseKernel("s0(f1 f2)")
		ty := dxml.DTDTyping(
			dxml.MustParseDTD(dxml.KindDFA, "root s1\ns1 -> (a|b)* a"),
			dxml.MustParseDTD(dxml.KindDFA, "root s2\ns2 -> "+re2),
		)
		e, err := dxml.ConsEDTD(k, ty, dxml.KindDFA)
		must(err)
		fmt.Fprintf(w, "  m=%d: |typeT| as dFA-EDTD = %d\n", m, e.Size())
	}
	fmt.Fprintln(w, "  → the EDTD representation avoids the DTD/SDTD dFA blow-up (per-name contents never concatenate)")
}

// table3 times the top-down decision problems across schema classes,
// reproducing the complexity table's shape: the EDTD column explodes
// relative to the word/DTD/SDTD column, and the ∃-problems dominate the
// verification problems.
func table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3 — top-down problems: time vs instance size")
	fmt.Fprintln(w, "(absolute times are ours; the paper's content is the complexity shape)")

	// Each procedure is timed on a fresh design: a design derives its
	// automata, cells and sound tuples once and reuses them, so a second
	// procedure on the same value would time only what is left.
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}

	fmt.Fprintln(w, "\nwords (nFA column), τ = (a b)+ scaled by repetition, w = f1 f2:")
	fmt.Fprintf(w, "  %-4s %12s %12s %12s %12s %12s\n", "k", "loc", "ml", "perf", "∃-perf", "∃-ml")
	for k := 1; k <= 3; k++ {
		target := strings.TrimSuffix(strings.Repeat("(a b)+ ", k), " ")
		fresh := func() *dxml.WordDesign { return dxml.MustWordDesign(target, "f1 f2") }
		typing, okT := fresh().LocalTyping()
		if !okT {
			typing = dxml.MustWordTyping("(a b)*", "(a b)*")
		}
		d := fresh()
		tLoc := timeIt(func() { d.Local(typing) })
		d = fresh()
		tMl := timeIt(func() { _, _ = d.MaximalLocal(typing) })
		d = fresh()
		tPerf := timeIt(func() { d.IsPerfect(typing) })
		d = fresh()
		tEPerf := timeIt(func() { _, _ = d.PerfectTyping() })
		d = fresh()
		tEMl := timeIt(func() { d.MaximalLocalTypings() })
		fmt.Fprintf(w, "  %-4d %12s %12s %12s %12s %12s\n", k, tLoc, tMl, tPerf, tEPerf, tEMl)
	}

	fmt.Fprintln(w, "\ntrees: DTD/SDTD (per-node word problems) vs EDTD (normalize + κ):")
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "class", "∃-perfect", "∃-ml")
	dtdType := dxml.MustParseDTD(dxml.KindNRE, `
		root eurostat
		eurostat -> averages, nationalIndex*
		averages -> (Good, index+)+
		nationalIndex -> country, Good, (index | value, year)
		index -> value, year`)
	dtdKernel := dxml.MustParseKernel("eurostat(f0 f1 f2 f3)")
	dtdDesign := func() *dxml.DTDDesign { return &dxml.DTDDesign{Type: dtdType, Kernel: dtdKernel} }
	tP := timeIt(func() { dtdDesign().ExistsPerfect() })
	tM := timeIt(func() { dtdDesign().ExistsMaximalLocal() })
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "DTD", tP, tM)

	sdtdType := dxml.MustParseEDTD(dxml.KindNRE, `
		root s
		s -> a1, b1
		a1 : a -> x*
		b1 : b -> a2
		a2 : a -> y?`)
	sdtdKernel := dxml.MustParseKernel("s(a(f1) b(a(f2)))")
	sdtdDesign := func() *dxml.SDTDDesign { return &dxml.SDTDDesign{Type: sdtdType, Kernel: sdtdKernel} }
	tP = timeIt(func() { sdtdDesign().ExistsPerfect() })
	tM = timeIt(func() { sdtdDesign().ExistsMaximalLocal() })
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "SDTD", tP, tM)

	edtdType := dxml.MustParseEDTD(dxml.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA, natIndB)+
		averages -> (Good, index+)+
		natIndA : nationalIndex -> country, Good, index
		natIndB : nationalIndex -> country, Good, value, year
		index -> value, year`)
	edtdKernel := dxml.MustParseKernel("eurostat(f1 nationalIndex(f2) f3)")
	edtdDesign := func() *dxml.EDTDDesign { return &dxml.EDTDDesign{Type: edtdType, Kernel: edtdKernel} }
	tP = timeIt(func() { _, _, _ = edtdDesign().ExistsPerfect() })
	tM = timeIt(func() { _, _ = edtdDesign().MaximalLocalTypings() })
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "EDTD(τ″)", tP, tM)

	fmt.Fprintln(w, "\nEDTD κ-route blow-up: ∃-ml time vs number s of same-element specializations")
	fmt.Fprintf(w, "  %-4s %8s %14s\n", "s", "κ space", "∃-ml time")
	for s := 1; s <= 4; s++ {
		var grammar strings.Builder
		grammar.WriteString("root s0\ns0 -> ")
		for i := 1; i <= s; i++ {
			if i > 1 {
				grammar.WriteString(" | ")
			}
			fmt.Fprintf(&grammar, "x%d", i)
		}
		grammar.WriteString("\n")
		for i := 1; i <= s; i++ {
			fmt.Fprintf(&grammar, "x%d : x -> y%d\n", i, i)
		}
		e := dxml.MustParseEDTD(dxml.KindNRE, grammar.String())
		design := &dxml.EDTDDesign{Type: e, Kernel: dxml.MustParseKernel("s0(x(f1))")}
		dur := timeIt(func() { _, _ = design.MaximalLocalTypings() })
		fmt.Fprintf(w, "  %-4d %8d %14s\n", s, (1<<s)-1, dur)
	}
	fmt.Fprintln(w, "  → the κ space (nonempty subsets of Σ̃(x)) doubles per specialization —")
	fmt.Fprintln(w, "    the NP^C oracle structure of Cor. 4.14; DTD/SDTD rows have no such factor")
}

func fig4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4 — perfect typing of ⟨τ, T0⟩ (see examples/eurostat for the full tour)")
	tau := dxml.MustParseDTD(dxml.KindNRE, `
		root eurostat
		eurostat -> averages, nationalIndex*
		averages -> (Good, index+)+
		nationalIndex -> country, Good, (index | value, year)
		index -> value, year`)
	design := &dxml.DTDDesign{Type: tau, Kernel: dxml.MustParseKernel("eurostat(f0 f1 f2 f3)")}
	typing, ok := design.ExistsPerfect()
	fmt.Fprintf(w, "  perfect typing exists: %v\n", ok)
	if ok {
		for i, t := range typing {
			fmt.Fprintf(w, "  f%d: %s -> %s\n", i, t.Starts[0], dxml.DisplayRegex(dxml.RootContent(t)))
		}
	}
}

func fig5(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 — τ′ admits no local typing")
	tauPrime := dxml.MustParseDTD(dxml.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA* | natIndB*)
		averages -> (Good, index+)+
		natIndA -> country, Good, index
		natIndB -> country, Good, value, year
		index -> value, year`)
	design := &dxml.DTDDesign{Type: tauPrime, Kernel: dxml.MustParseKernel("eurostat(f0 f1 f2 f3)")}
	_, ok := design.ExistsLocal()
	fmt.Fprintf(w, "  ∃-loc[⟨τ′, T0⟩] = %v (paper: no local typing)\n", ok)
}

func fig6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6 — τ″ over T1: no perfect, exactly two maximal local typings")
	tau := dxml.MustParseEDTD(dxml.KindNRE, `
		root eurostat
		eurostat -> averages, (natIndA, natIndB)+
		averages -> (Good, index+)+
		natIndA : nationalIndex -> country, Good, index
		natIndB : nationalIndex -> country, Good, value, year
		index -> value, year`)
	design := &dxml.EDTDDesign{Type: tau, Kernel: dxml.MustParseKernel("eurostat(f1 nationalIndex(f2) f3)")}
	_, ok, err := design.ExistsPerfect()
	must(err)
	fmt.Fprintf(w, "  ∃-perf = %v\n", ok)
	typings, err := design.MaximalLocalTypings()
	must(err)
	fmt.Fprintf(w, "  maximal local typings: %d\n", len(typings))
	for i, ty := range typings {
		fmt.Fprintf(w, "  typing %d:\n", i+1)
		for j, t := range ty {
			fmt.Fprintf(w, "    f%d: -> %s\n", j+1, dxml.DisplayRegex(dxml.RootContent(t)))
		}
	}
}

// fig7 measures the perfect-automaton construction: Lemma 6.6 bounds the
// size of Ω by O(n·k³) for k states and n functions.
func fig7(w io.Writer) {
	fmt.Fprintln(w, "Figure 7 / Lemma 6.6 — perfect automaton size vs k (states) and n (functions)")
	fmt.Fprintf(w, "  %-4s %-4s %10s %12s %14s\n", "k", "n", "|Ω| states", "build time", "|Ω|/(n·k³)")
	for _, k := range []int{4, 8, 12} {
		for _, n := range []int{1, 2, 4} {
			// Target: the k-state cycle automaton a0 a1 … a(k−1) repeated;
			// the kernel is n adjacent functions, so every state pair
			// yields a legal local automaton.
			re := ""
			for i := 0; i < k; i++ {
				re += fmt.Sprintf("a%d ", i)
			}
			target := "(" + strings.TrimSpace(re) + ")*"
			kernelStr := ""
			for i := 1; i <= n; i++ {
				kernelStr += fmt.Sprintf("f%d ", i)
			}
			d := dxml.MustWordDesign(target, strings.TrimSpace(kernelStr))
			start := time.Now()
			p := d.Perfect()
			omega := p.OmegaNFA()
			dur := time.Since(start)
			states := omega.NumStates()
			fmt.Fprintf(w, "  %-4d %-4d %10d %12s %14.3f\n", k, n, states, dur,
				float64(states)/float64(n*k*k*k))
		}
	}
	fmt.Fprintln(w, "  → the normalized column stays bounded: |Ω| = O(n·k³) as Lemma 6.6 states")
}

func fig8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8 — Dec decomposition of overlapping automata into disjoint cells")
	autos := []*dxml.NFA{
		dxml.RegexNFA(dxml.MustParseRegex("a*")),
		dxml.RegexNFA(dxml.MustParseRegex("a+")),
		dxml.RegexNFA(dxml.MustParseRegex("a a | a a a")),
	}
	cells := dxml.DecomposeCells(autos)
	fmt.Fprintf(w, "  three automata (a*, a+, aa|aaa) → %d nonempty cells of ≤ 2³−1 = 7:\n", len(cells))
	for _, c := range cells {
		fmt.Fprintf(w, "    members %v: %s\n", c.Members.Sorted(), dxml.DisplayRegex(c.Lang))
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dxmlbench:", err)
		os.Exit(1)
	}
}
