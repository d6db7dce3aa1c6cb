package strlang_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dxml/internal/core"
	"dxml/internal/strlang"
)

// randomWordRegex draws a regex over {a, b, c} the way the word-design
// generators of internal/core's fuzz tests do.
func randomWordRegex(r *rand.Rand, depth int) string {
	if depth == 0 {
		return string(rune('a' + r.Intn(3)))
	}
	switch r.Intn(5) {
	case 0:
		return randomWordRegex(r, depth-1) + " " + randomWordRegex(r, depth-1)
	case 1:
		return "(" + randomWordRegex(r, depth-1) + " | " + randomWordRegex(r, depth-1) + ")"
	case 2:
		return "(" + randomWordRegex(r, depth-1) + ")*"
	case 3:
		return "(" + randomWordRegex(r, depth-1) + ")?"
	default:
		return randomWordRegex(r, depth-1)
	}
}

// TestIncludedMatchesOracleOnWordDesigns runs Included against the oracle
// on the inclusions the word-design procedures decide: every typing the
// random designs return, its extension against the target both ways, and
// each component against the perfect automaton's Ω component and against
// the other typings' components.
func TestIncludedMatchesOracleOnWordDesigns(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	kernels := []string{"f1", "a f1", "f1 f2", "f1 b f2", "a f1 c f2"}
	checks, held := 0, 0
	check := func(label string, a, b *strlang.NFA) {
		t.Helper()
		checks++
		ok, w := strlang.Included(a, b)
		wantOK, wantW := strlang.OracleIncluded(a, b)
		if ok != wantOK {
			t.Fatalf("%s: Included = %v, oracle %v", label, ok, wantOK)
		}
		if ok {
			held++
			return
		}
		if !slices.Equal(w, wantW) || (w == nil) != (wantW == nil) {
			t.Fatalf("%s: witness %q, oracle %q", label, w, wantW)
		}
		if !a.Accepts(w) || b.Accepts(w) {
			t.Fatalf("%s: witness %q is not in [a] − [b]", label, w)
		}
	}
	for trial := 0; trial < 60; trial++ {
		re := randomWordRegex(r, 2)
		kernel := kernels[r.Intn(len(kernels))]
		d := core.MustWordDesign(re, kernel)
		var typings []core.WordTyping
		if local, ok := d.LocalTyping(); ok {
			typings = append(typings, local)
		}
		typings = append(typings, d.MaximalLocalTypings()...)
		typings = append(typings, d.MaximalSoundTypings()...)
		if perfect, ok := d.PerfectTyping(); ok {
			typings = append(typings, perfect)
		}
		var omega core.WordTyping
		if p := d.Perfect(); p.Compatible() {
			omega = p.TypingOmega()
		}
		for ti, typing := range typings {
			label := fmt.Sprintf("τ=%s w=%s typing %d", re, kernel, ti)
			ext := d.ExtensionNFA(typing)
			check(label+": ext ⊆ target", ext, d.Target)
			check(label+": target ⊆ ext", d.Target, ext)
			for i, lang := range typing {
				if omega != nil {
					check(fmt.Sprintf("%s: τ%d ⊆ Ω%d", label, i+1, i+1), lang, omega[i])
					check(fmt.Sprintf("%s: Ω%d ⊆ τ%d", label, i+1, i+1), omega[i], lang)
				}
				for tj, other := range typings[:ti] {
					check(fmt.Sprintf("%s: τ%d ⊆ typing %d's", label, i+1, tj), lang, other[i])
					check(fmt.Sprintf("%s: typing %d's τ%d ⊆ it", label, tj, i+1), other[i], lang)
				}
			}
		}
	}
	t.Logf("%d of %d inclusions held", held, checks)
	if held == 0 || held == checks {
		t.Fatalf("%d of %d inclusions held; both outcomes must occur", held, checks)
	}
}
