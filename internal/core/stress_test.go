package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
)

// TestStressRouteAgreement fuzzes random DTD designs through the three
// top-down routes (Theorems 4.2, 4.5, Section 4.3), which must agree on
// ∃-loc and ∃-perf. The DTD and SDTD routes must moreover return
// equivalent typings and as many maximal local word typings, and each
// must accept, as local and as perfect, the typings the other returned.
func TestStressRouteAgreement(t *testing.T) {
	kernels := []string{"s(f1)", "s(a f1)", "s(f1 f2)", "s(f1 a(f2))", "s(a(f1) b)"}
	roots := []string{"a* b?", "a b", "a*", "a | b", "a+ b*", "b* a", "(a b)*"}
	subs := []string{"", "\na -> c?", "\na -> c*\nb -> ε"}
	locals, perfects := 0, 0
	for seed := int64(50); seed < 56; seed++ {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 15; trial++ {
			kSrc := kernels[r.Intn(len(kernels))]
			dtdSrc := fmt.Sprintf("root s\ns -> %s%s", roots[r.Intn(len(roots))], subs[r.Intn(len(subs))])
			dtd := schema.MustParseDTD(schema.KindNRE, dtdSrc)
			kernel := axml.MustParseKernel(kSrc)
			dD := &DTDDesign{Type: dtd, Kernel: kernel}
			dS := &SDTDDesign{Type: dtd.ToEDTD(), Kernel: kernel}
			dE := &EDTDDesign{Type: dtd.ToEDTD(), Kernel: kernel}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed=%d %q over %s: %s", seed, dtdSrc, kSrc, fmt.Sprintf(format, args...))
			}
			// accepted checks that each of the DTD and SDTD routes accepts
			// the other's typing.
			accepted := func(what string, tyD, tyS Typing, dtdOK func(Typing) (bool, error), sdtdOK func(Typing) (bool, error)) {
				t.Helper()
				if !EquivTyping(tyD, tyS) {
					fail("%s: DTD and SDTD typings differ", what)
				}
				if ok, err := dtdOK(tyS); err != nil || !ok {
					fail("%s: DTD route rejects the SDTD typing (err %v)", what, err)
				}
				if ok, err := sdtdOK(tyD); err != nil || !ok {
					fail("%s: SDTD route rejects the DTD typing (err %v)", what, err)
				}
			}

			locD, okD := dD.ExistsLocal()
			locS, okS := dS.ExistsLocal()
			_, okE, err := dE.ExistsLocal()
			if err != nil {
				fail("%v", err)
			}
			if okD != okS || okD != okE {
				fail("∃-loc DTD=%v SDTD=%v EDTD=%v", okD, okS, okE)
			}
			if okD {
				accepted("∃-loc", locD, locS, dD.IsLocal, dS.IsLocal)
				locals++
			}
			perfD, okD2 := dD.ExistsPerfect()
			perfS, okS2 := dS.ExistsPerfect()
			_, okE2, err := dE.ExistsPerfect()
			if err != nil {
				fail("%v", err)
			}
			if okD2 != okS2 || okD2 != okE2 {
				fail("∃-perf DTD=%v SDTD=%v EDTD=%v", okD2, okS2, okE2)
			}
			if okD2 {
				accepted("∃-perf", perfD, perfS, dD.IsPerfect, dS.IsPerfect)
				perfects++
			}
			if nD, nS := len(dD.MaximalLocalWordTypings()), len(dS.MaximalLocalWordTypings()); nD != nS {
				fail("∃-ml: %d DTD and %d SDTD maximal local typings", nD, nS)
			}
		}
	}
	if locals == 0 || perfects == 0 {
		t.Fatalf("%d local and %d perfect typings cross-checked, want some of each", locals, perfects)
	}
	t.Logf("%d local and %d perfect typings cross-checked", locals, perfects)
}

// TestStressPerfectCharacterizations: on designs where the Ω typing has
// no trivial component, the Theorem 6.5 Ω-characterization (literal mode)
// and the unique-maximal-sound characterization (convention mode) must
// agree.
func TestStressPerfectCharacterizations(t *testing.T) {
	kernels := []string{"f1", "a f1", "f1 f2", "f1 b f2", "a f1 c f2"}
	for seed := int64(200); seed < 206; seed++ {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			re := randomWordRegex(r, 2)
			kernel := kernels[r.Intn(len(kernels))]
			literal := MustWordDesign(re, kernel)
			literal.AllowTrivialTypes = true
			conv := MustWordDesign(re, kernel)
			if !literal.Perfect().Compatible() {
				continue
			}
			trivialOmega := false
			for _, o := range literal.Perfect().TypingOmega() {
				if isTrivialEps(o) {
					trivialOmega = true
					break
				}
			}
			if trivialOmega {
				continue // the modes legitimately differ here
			}
			_, okL := literal.PerfectTyping()
			pC, okC := conv.PerfectTyping()
			if okL != okC {
				// Convention mode may still find a perfect typing the Ω
				// test misses when Ω is inflated by ε-options of OTHER
				// slots; it must never find FEWER.
				if okL && !okC {
					t.Fatalf("seed=%d τ=%s w=%s: literal perfect but convention not", seed, re, kernel)
				}
				// Verify the extra perfect typing dominates all sound
				// tuples.
				for _, ms := range conv.MaximalSoundTypings() {
					if !LeqWord(ms, pC) {
						t.Fatalf("seed=%d τ=%s w=%s: convention perfect does not dominate", seed, re, kernel)
					}
				}
				continue
			}
			if okL && okC {
				pL, _ := literal.PerfectTyping()
				if !EquivWord(pL, pC) {
					t.Fatalf("seed=%d τ=%s w=%s: perfect typings differ between modes", seed, re, kernel)
				}
			}
		}
	}
}

func TestStressConsDifferential(t *testing.T) {
	kernels := []string{
		"s0(f1)", "s0(a f1)", "s0(f1 f2)", "s0(a(f1) b(f2))",
		"s0(a(f1) a(f2))", "s0(f1 a(f2))", "s0(a(b f1) f2)",
		"s0(a(f1 b) a(c f2))", "s0(a(a(f1)) f2)",
	}
	contents := []string{"b*", "b", "b?", "b c", "c*", "b | c", "ε", "b b"}
	subRules := []string{"", "\nb -> d?", "\nb -> d*", "\nc -> d", "\nb -> c?\nc -> ε"}
	for seed := int64(100); seed < 108; seed++ {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 30; trial++ {
			kSrc := kernels[r.Intn(len(kernels))]
			k := axml.MustParseKernel(kSrc)
			typing := make(Typing, k.NumFuncs())
			var desc []string
			for i := range typing {
				src := fmt.Sprintf("root s%d\ns%d -> %s%s", i+1, i+1,
					contents[r.Intn(len(contents))], subRules[r.Intn(len(subRules))])
				typing[i] = schema.MustParseEDTD(schema.KindNRE, src)
				desc = append(desc, src)
			}
			merge, err := ConsSDTD(k, typing, schema.KindNFA)
			if err != nil {
				t.Fatalf("seed=%d T=%s typing=%q: %v", seed, kSrc, desc, err)
			}
			oracle, err := ConsSDTDCandidate(k, typing)
			if err != nil {
				t.Fatalf("seed=%d T=%s typing=%q: %v", seed, kSrc, desc, err)
			}
			if merge.Consistent != oracle.Consistent {
				t.Fatalf("seed=%d T=%s typing=%q: SDTD disagree merge=%v oracle=%v (%s|%s)",
					seed, kSrc, desc, merge.Consistent, oracle.Consistent, merge.Reason, oracle.Reason)
			}
			mergeDTD, err := ConsDTD(k, typing, schema.KindNFA)
			if err != nil {
				t.Fatalf("seed=%d T=%s typing=%q: %v", seed, kSrc, err, desc)
			}
			oracleDTD, err := ConsDTDCandidate(k, typing)
			if err != nil {
				t.Fatalf("seed=%d T=%s typing=%q: %v", seed, kSrc, err, desc)
			}
			if mergeDTD.Consistent != oracleDTD.Consistent {
				t.Fatalf("seed=%d T=%s typing=%q: DTD disagree merge=%v oracle=%v (%s|%s)",
					seed, kSrc, desc, mergeDTD.Consistent, oracleDTD.Consistent, mergeDTD.Reason, oracleDTD.Reason)
			}
		}
	}
}
