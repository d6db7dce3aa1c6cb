package strlang

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracleIncluded is the previous Included, kept as the oracle for the
// antichain search: a breadth-first search over the product of a's ε-free
// form with the on-the-fly determinization of b, visiting each (state,
// subset) pair once and stepping b by its ε-closures. Its witness is the
// shortest word in [a] − [b], least by symbol names among those.
func oracleIncluded(a, b *NFA) (bool, []Symbol) {
	ea := a.WithoutEps()
	rank := map[int32]int{}
	for i, sid := range ea.AlphabetIDs() {
		rank[sid] = i
	}
	type node struct {
		p   int    // state of ea
		key string // determinized subset of b
	}
	subsets := map[string]IntSet{}
	intern := func(s IntSet) string {
		k := s.Key()
		if _, ok := subsets[k]; !ok {
			subsets[k] = s
		}
		return k
	}
	start := node{ea.Start(), intern(b.Closure(NewIntSet(b.Start())))}
	type parentEdge struct {
		prev node
		sym  int32
	}
	parents := map[node]parentEdge{}
	seen := map[node]bool{start: true}
	queue := []node{start}
	witness := func(n node) []Symbol {
		var rev []Symbol
		for n != start {
			pe := parents[n]
			rev = append(rev, SymbolName(pe.sym))
			n = pe.prev
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		bs := subsets[cur.key]
		if ea.IsFinal(cur.p) && !bs.Intersects(b.Finals()) {
			return false, witness(cur)
		}
		row := &ea.trans[cur.p]
		edges := make([]int, len(row.syms))
		for i := range row.syms {
			edges[i] = i
		}
		slices.SortFunc(edges, func(x, y int) int {
			return rank[row.syms[x]] - rank[row.syms[y]]
		})
		for _, i := range edges {
			sid := row.syms[i]
			nextB := intern(b.StepID(bs, sid))
			for _, t := range row.ts[i] {
				n := node{int(t), nextB}
				if !seen[n] {
					seen[n] = true
					parents[n] = parentEdge{cur, sid}
					queue = append(queue, n)
				}
			}
		}
	}
	return true, nil
}

// OracleIncluded exposes the oracle to the external differential tests,
// which build their inputs from the design packages.
var OracleIncluded = oracleIncluded

// checkAgainstOracle fails t unless Included(a, b) gives the oracle's
// verdict and, on failure, the oracle's witness, which must be in
// [a] − [b]. It reports whether inclusion holds.
func checkAgainstOracle(t *testing.T, label string, a, b *NFA) bool {
	t.Helper()
	ok, w := Included(a, b)
	wantOK, wantW := oracleIncluded(a, b)
	if ok != wantOK {
		t.Fatalf("%s: Included = %v, oracle %v (oracle witness %q)", label, ok, wantOK, wantW)
	}
	if !ok {
		if !slices.Equal(w, wantW) || (w == nil) != (wantW == nil) {
			t.Fatalf("%s: witness %q, oracle %q", label, w, wantW)
		}
		if !a.Accepts(w) || b.Accepts(w) {
			t.Fatalf("%s: witness %q is not in [a] − [b]", label, w)
		}
	}
	return ok
}

// loosenNFA returns a copy of a with a few more edges and finals, so its
// language contains a's: inclusion pairs that hold make the search explore
// everything instead of stopping at the first counterexample.
func loosenNFA(r *rand.Rand, a *NFA) *NFA {
	b := a.Clone()
	alphabet := []Symbol{"a", "b", "c"}
	n := b.NumStates()
	for i := r.Intn(3); i > 0; i-- {
		b.AddTransition(r.Intn(n), alphabet[r.Intn(len(alphabet))], r.Intn(n))
	}
	if r.Intn(2) == 0 {
		b.AddEps(r.Intn(n), r.Intn(n))
	}
	if r.Intn(3) == 0 {
		b.MarkFinal(r.Intn(n))
	}
	return b
}

// TestIncludedMatchesOracle runs the antichain search against the oracle on
// random NFAs with ε-edges and on random regexes, both ways round, with
// unrelated pairs and with pairs where the right side contains the left.
func TestIncludedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2022))
	held := 0
	for trial := 0; trial < 600; trial++ {
		var a, b *NFA
		switch trial % 3 {
		case 0:
			a, b = randomNFA(r), randomNFA(r)
		case 1:
			a = randomNFA(r)
			b = loosenNFA(r, a)
		default:
			a, b = RegexNFA(randomRegex(r, 4)), RegexNFA(randomRegex(r, 4))
		}
		label := fmt.Sprintf("trial %d:\na = %s\nb = %s", trial, a, b)
		if checkAgainstOracle(t, label+" (a ⊆ b)", a, b) {
			held++
		}
		if checkAgainstOracle(t, label+" (b ⊆ a)", b, a) {
			held++
		}
		eq, w := Equivalent(a, b)
		okAB, _ := oracleIncluded(a, b)
		okBA, _ := oracleIncluded(b, a)
		if eq != (okAB && okBA) {
			t.Fatalf("%s: Equivalent = %v, oracle %v and %v", label, eq, okAB, okBA)
		}
		if !eq && a.Accepts(w) == b.Accepts(w) {
			t.Fatalf("%s: Equivalent witness %q is not in the symmetric difference", label, w)
		}
	}
	// Both outcomes must be well represented, or the test shows little.
	t.Logf("%d of 1200 inclusions held", held)
	if held < 200 || held > 1000 {
		t.Fatalf("%d of 1200 inclusions held; the generator is off balance", held)
	}
}

// FuzzInclusion parses two regexes and checks Included both ways round
// against the oracle: equal verdicts and equal witnesses, each in the
// difference. Inputs that do not parse, or are long enough to make the
// oracle's unpruned search slow, are skipped.
func FuzzInclusion(f *testing.F) {
	for _, seed := range [][2]string{
		{"a* b", "(a | b)*"},
		{"(a b)* (a b)* a?", "(a b)* a | (a b)*"},
		{"a+", "a a*"},
		{"(a | b)* a (a | b) (a | b)", "(a | b)* a (a | b)"},
		{"ε", "a*"},
		{"a? b? c?", "(a | b | c)?"},
		{"x (y | z)*", "x y* z*"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, x, y string) {
		if len(x) > 48 || len(y) > 48 {
			t.Skip()
		}
		rx, err := ParseRegex(x)
		if err != nil {
			t.Skip()
		}
		ry, err := ParseRegex(y)
		if err != nil {
			t.Skip()
		}
		a, b := RegexNFA(rx), RegexNFA(ry)
		label := fmt.Sprintf("%q vs %q", x, y)
		checkAgainstOracle(t, label, a, b)
		checkAgainstOracle(t, label+" reversed", b, a)
	})
}

// TestIncludedConcurrent decides inclusion and equivalence on shared
// automata, one with ε-edges and one without, from several goroutines;
// under -race it shows that the decisions only read their inputs.
func TestIncludedConcurrent(t *testing.T) {
	a := mustLang(t, "(a | b)* a (a | b)")
	b := Union(mustLang(t, "(a | b)* a (a | b)"), mustLang(t, "b*"))
	wantAB, _ := Included(a, b)
	wantBA, wantW := Included(b, a)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if ok, _ := Included(a, b); ok != wantAB {
					t.Errorf("Included(a, b) = %v, want %v", ok, wantAB)
				}
				if ok, w := Included(b, a); ok != wantBA || !slices.Equal(w, wantW) {
					t.Errorf("Included(b, a) = %v %q, want %v %q", ok, w, wantBA, wantW)
				}
				Equivalent(a, b)
			}
		}()
	}
	wg.Wait()
}
