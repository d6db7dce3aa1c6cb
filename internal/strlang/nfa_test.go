package strlang

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mustLang parses a regex and returns its Glushkov NFA.
func mustLang(t testing.TB, src string) *NFA {
	t.Helper()
	r, err := ParseRegex(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return RegexNFA(r)
}

func str(w string) []Symbol {
	if w == "" {
		return nil
	}
	parts := strings.Split(w, "")
	return parts
}

func TestNFABasics(t *testing.T) {
	a := NewNFA()
	q1 := a.AddState()
	q2 := a.AddState()
	a.AddTransition(a.Start(), "a", q1)
	a.AddTransition(q1, "b", q2)
	a.AddEps(q1, q2)
	a.MarkFinal(q2)

	cases := []struct {
		w    string
		want bool
	}{
		{"", false},
		{"a", true}, // via ε after a
		{"ab", true},
		{"b", false},
		{"abb", false},
	}
	for _, c := range cases {
		if got := a.Accepts(str(c.w)); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
	if got := a.NumStates(); got != 3 {
		t.Errorf("NumStates = %d, want 3", got)
	}
	alpha := a.Alphabet()
	if len(alpha) != 2 || alpha[0] != "a" || alpha[1] != "b" {
		t.Errorf("Alphabet = %v", alpha)
	}
}

func TestNFAEmptyAndEps(t *testing.T) {
	if !EmptyLang().IsEmpty() {
		t.Error("EmptyLang not empty")
	}
	if EpsLang().IsEmpty() {
		t.Error("EpsLang empty")
	}
	if !EpsLang().AcceptsEps() {
		t.Error("EpsLang rejects ε")
	}
	if EpsLang().Accepts(str("a")) {
		t.Error("EpsLang accepts a")
	}
}

func TestTrimKeepsLanguage(t *testing.T) {
	a := mustLang(t, "a b* | c")
	// Add junk states.
	junk := a.AddState()
	a.AddTransition(junk, "z", junk)
	trimmed, _ := a.Trim()
	if ok, w := Equivalent(a, trimmed); !ok {
		t.Fatalf("trim changed language, witness %v", w)
	}
	if trimmed.NumStates() >= a.NumStates() {
		t.Errorf("trim did not remove junk: %d >= %d", trimmed.NumStates(), a.NumStates())
	}
}

func TestWithoutEps(t *testing.T) {
	a := NewNFA()
	q1 := a.AddState()
	q2 := a.AddState()
	a.AddEps(a.Start(), q1)
	a.AddTransition(q1, "a", q2)
	a.AddEps(q2, q1)
	a.MarkFinal(q2)
	b := a.WithoutEps()
	for q := 0; q < b.NumStates(); q++ {
		if len(b.eps[q]) != 0 {
			t.Fatalf("state %d still has ε-transitions", q)
		}
	}
	if ok, w := Equivalent(a, b); !ok {
		t.Fatalf("WithoutEps changed language, witness %v", w)
	}
}

func TestDeterminizeAndMinimize(t *testing.T) {
	cases := []struct {
		re      string
		minSize int // states of the minimal DFA
	}{
		{"a*", 1},
		{"(a b)*", 2},
		{"a | b", 2},
		{"(a|b)* a (a|b)", 4},
		{"a b c", 4},
	}
	for _, c := range cases {
		a := mustLang(t, c.re)
		d := a.Determinize()
		if ok, w := Equivalent(a, d.NFA()); !ok {
			t.Errorf("%s: determinize changed language, witness %v", c.re, w)
		}
		m := d.Minimize()
		if ok, w := Equivalent(a, m.NFA()); !ok {
			t.Errorf("%s: minimize changed language, witness %v", c.re, w)
		}
		if m.NumStates() != c.minSize {
			t.Errorf("%s: minimal DFA has %d states, want %d", c.re, m.NumStates(), c.minSize)
		}
	}
}

func TestMinimizeEmpty(t *testing.T) {
	m := EmptyLang().Determinize().Minimize()
	if !m.NFA().IsEmpty() {
		t.Error("minimized empty language is nonempty")
	}
}

func TestDFAComplement(t *testing.T) {
	a := mustLang(t, "a (a|b)*") // strings starting with a
	alpha := []Symbol{"a", "b"}
	c := Complement(a, alpha)
	for _, w := range [][]Symbol{nil, str("a"), str("b"), str("ab"), str("ba"), str("bb")} {
		inA := a.Accepts(w)
		inC := c.Accepts(w)
		if inA == inC {
			t.Errorf("complement wrong on %v: a=%v c=%v", w, inA, inC)
		}
	}
}

func TestEnumerate(t *testing.T) {
	a := mustLang(t, "a b* c")
	got := Enumerate(a, 4, 10)
	want := []string{"ac", "abc", "abbc"}
	if len(got) != len(want) {
		t.Fatalf("Enumerate returned %d strings, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if strings.Join(got[i], "") != w {
			t.Errorf("Enumerate[%d] = %v, want %s", i, got[i], w)
		}
	}
}

func TestSize(t *testing.T) {
	a := mustLang(t, "a b")
	if a.Size() <= a.NumStates() {
		t.Errorf("Size = %d should exceed state count %d", a.Size(), a.NumStates())
	}
}

// TestBulkRowsAreIndependent: the copies Clone, WithoutEps, Trim, Reverse,
// MapSymbols and Graft build share backing arrays between rows; adding
// symbol or ε edges to one row afterwards must leave every other row, and
// the source, as they were.
func TestBulkRowsAreIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	edgeSet := func(a *NFA) map[string]bool {
		out := map[string]bool{}
		a.EachTransition(func(from int, sym Symbol, to int) {
			out[fmt.Sprintf("%d %s %d", from, sym, to)] = true
		})
		for q := 0; q < a.NumStates(); q++ {
			for _, t := range a.EpsSucc(q) {
				out[fmt.Sprintf("%d ε %d", q, t)] = true
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		src := randomNFA(r)
		before := src.String()
		trimmed, _ := src.Trim()
		grafted := NewNFA()
		grafted.Graft(src)
		copies := []*NFA{src.Clone(), src.WithoutEps(), trimmed, src.Reverse(), src.MapSymbols(func(s Symbol) Symbol { return s + "'" }), grafted}
		for ci, c := range copies {
			want := edgeSet(c)
			n := c.NumStates()
			for i := 0; i < 6; i++ {
				from, to := r.Intn(n), r.Intn(n)
				sym := []Symbol{"a", "b", "c", "a'"}[r.Intn(4)]
				c.AddTransition(from, sym, to)
				want[fmt.Sprintf("%d %s %d", from, sym, to)] = true
				from, to = r.Intn(n), r.Intn(n)
				c.AddEps(from, to)
				want[fmt.Sprintf("%d ε %d", from, to)] = true
			}
			if got := edgeSet(c); !maps.Equal(got, want) {
				t.Fatalf("trial %d copy %d: edges %v after adding, want %v", trial, ci, got, want)
			}
		}
		if src.String() != before {
			t.Fatalf("trial %d: source changed from\n%s to\n%s", trial, before, src)
		}
	}
}

// TestUsefulSymbolsMatchTrim: the symbols on edges between useful states
// are the alphabet of the trimmed automaton.
func TestUsefulSymbolsMatchTrim(t *testing.T) {
	// An empty language whose start state loops: the state kept by force
	// keeps none of its edges, so neither result has a symbol.
	empty := NewNFA()
	empty.AddState()
	empty.AddTransition(0, "a", 0)
	empty.MarkFinal(1)
	trimmed, _ := empty.Trim()
	if !empty.IsEmpty() || len(empty.UsefulSymbols()) != 0 || len(trimmed.Alphabet()) != 0 ||
		trimmed.NumStates() != 1 || trimmed.Finals().Len() != 0 {
		t.Fatalf("empty language: UsefulSymbols %v, trimmed\n%s", empty.UsefulSymbols(), trimmed)
	}
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 300; trial++ {
		a := randomNFA(r)
		trimmed, _ := a.Trim()
		if got, want := a.UsefulSymbols(), trimmed.Alphabet(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: UsefulSymbols %v, trimmed alphabet %v\n%s", trial, got, want, a)
		}
	}
}
