package uta

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// oracleIncluded is the previous Included, kept as the oracle for the
// worklist: a fixpoint that rescans every label × state of a on every
// pass, rebuilding each content automaton's ε-free form, until no new
// (a-state, b-d-state) pair appears. Each explored edge carries a whole
// witness tree. Its witness is taken from a map, so it may differ between
// calls; only its verdict and the membership of its witness are checked.
func oracleIncluded(a, b *NUTA) (bool, *xmltree.Tree) {
	labels := map[string]struct{}{}
	for _, l := range a.Labels() {
		labels[l] = struct{}{}
	}
	for _, l := range b.Labels() {
		labels[l] = struct{}{}
	}
	var labelList []string
	for l := range labels {
		labelList = append(labelList, l)
	}
	db := Determinize(b, labelList)

	witness := map[inclPair]*xmltree.Tree{}
	var order []inclPair
	addPair := func(p inclPair, t *xmltree.Tree) {
		if _, ok := witness[p]; ok {
			return
		}
		witness[p] = t
		order = append(order, p)
	}
	for {
		grew := false
		for _, label := range db.Labels() {
			lp := db.product(label)
			for _, q := range a.statesFor(label) {
				nfa := a.Delta(q, label).WithoutEps()
				grew = oracleSearchPairs(db, lp, label, q, nfa, witness, &order, addPair) || grew
			}
		}
		if !grew {
			break
		}
	}
	for p, t := range witness {
		if a.finals.Has(p.q) && !db.IsFinal(p.d) {
			return false, t
		}
	}
	return true, nil
}

// oracleSearchPairs explores the joint graph of (single NFA state of a's
// content automaton) × (b product state), stepping by known pairs, and
// registers every (q, signature) pair reachable at an accepting NFA state.
// Returns whether a new pair was added. Pairs are compared on (q, d) only.
func oracleSearchPairs(db *DUTA, lp *labelProduct, label string, q int,
	nfa *strlang.NFA, witness map[inclPair]*xmltree.Tree,
	order *[]inclPair,
	addPair func(inclPair, *xmltree.Tree)) bool {

	type node struct {
		x int // NFA state of a's content automaton
		p int // product state of b for this label
	}
	type entry struct {
		n        node
		children []*xmltree.Tree
	}
	startNode := node{nfa.Start(), lp.start}
	seen := map[node]bool{startNode: true}
	queue := []entry{{startNode, nil}}
	before := len(*order)

	emit := func(e entry) {
		if nfa.IsFinal(e.n.x) {
			addPair(inclPair{q: q, d: lp.sig[e.n.p]}, xmltree.New(label, e.children...))
		}
	}
	emit(queue[0])
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for i := 0; i < len(*order); i++ {
			cp := (*order)[i]
			targets := nfa.SuccID(e.n.x, stateSymID(cp.q))
			if len(targets) == 0 {
				continue
			}
			np := db.step(lp, e.n.p, cp.d)
			for _, x2 := range targets {
				n2 := node{int(x2), np}
				if seen[n2] {
					continue
				}
				seen[n2] = true
				children := append(append([]*xmltree.Tree{}, e.children...), witness[cp].Clone())
				e2 := entry{n2, children}
				emit(e2)
				queue = append(queue, e2)
			}
		}
	}
	return len(*order) > before
}

// OracleIncluded exposes the oracle to the external differential tests,
// which build their inputs from the design packages.
var OracleIncluded = oracleIncluded

// nutaSpec describes a NUTA so that a copy with a larger language can be
// derived from it.
type nutaSpec struct {
	n        int
	finals   []int
	contents []contentSpec
}

// contentSpec is one content automaton Δ(q, label): child is the state
// symbol an edge reads, or -1 for ε.
type contentSpec struct {
	q      int
	label  string
	states int
	edges  [][3]int // from, child, to
	finals []int
}

func (s nutaSpec) build() *NUTA {
	a := NewNUTA(s.n)
	for _, f := range s.finals {
		a.MarkFinal(f)
	}
	for _, c := range s.contents {
		nfa := strlang.NewNFA()
		for i := 1; i < c.states; i++ {
			nfa.AddState()
		}
		for _, e := range c.edges {
			if e[1] < 0 {
				nfa.AddEps(e[0], e[2])
			} else {
				nfa.AddTransition(e[0], StateSym(e[1]), e[2])
			}
		}
		for _, f := range c.finals {
			nfa.MarkFinal(f)
		}
		a.SetDelta(c.q, c.label, nfa)
	}
	return a
}

// randomNUTASpec draws a NUTA over labels {a, b, c} with up to four
// states, each (state, label) given a small random content automaton with
// probability one half.
func randomNUTASpec(r *rand.Rand) nutaSpec {
	s := nutaSpec{n: 1 + r.Intn(4)}
	for i := 1 + r.Intn(2); i > 0; i-- {
		s.finals = append(s.finals, r.Intn(s.n))
	}
	for q := 0; q < s.n; q++ {
		for _, label := range []string{"a", "b", "c"} {
			if r.Intn(2) == 0 {
				continue
			}
			c := contentSpec{q: q, label: label, states: 1 + r.Intn(3)}
			for i := r.Intn(2 * c.states); i > 0; i-- {
				child := r.Intn(s.n+1) - 1
				c.edges = append(c.edges, [3]int{r.Intn(c.states), child, r.Intn(c.states)})
			}
			for i := 1 + r.Intn(c.states); i > 0; i-- {
				c.finals = append(c.finals, r.Intn(c.states))
			}
			s.contents = append(s.contents, c)
		}
	}
	return s
}

// loosen returns a copy of s with a few more content edges, content
// finals and root finals, so its language contains s's.
func (s nutaSpec) loosen(r *rand.Rand) nutaSpec {
	out := nutaSpec{n: s.n, finals: append([]int(nil), s.finals...)}
	if r.Intn(3) == 0 {
		out.finals = append(out.finals, r.Intn(s.n))
	}
	for _, c := range s.contents {
		c.edges = append([][3]int(nil), c.edges...)
		c.finals = append([]int(nil), c.finals...)
		if r.Intn(3) == 0 {
			c.edges = append(c.edges, [3]int{r.Intn(c.states), r.Intn(s.n+1) - 1, r.Intn(c.states)})
		}
		if r.Intn(4) == 0 {
			c.finals = append(c.finals, r.Intn(c.states))
		}
		out.contents = append(out.contents, c)
	}
	return out
}

// checkAgainstOracle fails t unless Included(a, b) gives the oracle's
// verdict and, on failure, a witness in [a] − [b] that a second call
// repeats. It reports whether inclusion holds, and the witness if not.
func checkAgainstOracle(t *testing.T, label string, a, b *NUTA) (bool, *xmltree.Tree) {
	t.Helper()
	ok, w := Included(a, b)
	wantOK, wantW := oracleIncluded(a, b)
	if ok != wantOK {
		t.Fatalf("%s: Included = %v, oracle %v (oracle witness %s)", label, ok, wantOK, wantW)
	}
	if ok {
		return true, nil
	}
	if !a.Accepts(w) || b.Accepts(w) {
		t.Fatalf("%s: witness %s is not in [a] − [b]", label, w)
	}
	if _, again := Included(a, b); again.String() != w.String() {
		t.Fatalf("%s: witness %s, then %s", label, w, again)
	}
	return false, w
}

// TestIncludedMatchesOracle runs the worklist against the oracle on random
// NUTAs with ε-edges in their content automata, both ways round, with
// unrelated pairs and with pairs where the right side contains the left.
func TestIncludedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2008))
	held, deep := 0, 0
	tally := func(ok bool, w *xmltree.Tree) {
		if ok {
			held++
		} else if len(w.Children) > 0 {
			deep++
		}
	}
	for trial := 0; trial < 1000; trial++ {
		sa := randomNUTASpec(r)
		sb := randomNUTASpec(r)
		if trial%2 == 1 {
			sb = sa.loosen(r)
		}
		a, b := sa.build(), sb.build()
		label := fmt.Sprintf("trial %d", trial)
		tally(checkAgainstOracle(t, label+" (a ⊆ b)", a, b))
		tally(checkAgainstOracle(t, label+" (b ⊆ a)", b, a))
	}
	// Both outcomes must be well represented, and some witnesses must
	// need more than a leaf, or the test shows little.
	t.Logf("%d of 2000 inclusions held; %d witnesses have children", held, deep)
	if held < 400 || held > 1600 || deep < 100 {
		t.Fatalf("%d of 2000 inclusions held, %d witnesses have children; the generator is off balance", held, deep)
	}
}

// TestIncludedWitnessIsDeterministic: when several trees refute inclusion,
// repeated calls return the same one. a accepts the leaves s and t through
// two final states, b accepts neither; the map-ordered oracle returned
// either.
func TestIncludedWitnessIsDeterministic(t *testing.T) {
	a := NewNUTA(2)
	a.SetDelta(0, "s", strlang.EpsLang())
	a.SetDelta(1, "t", strlang.EpsLang())
	a.MarkFinal(0)
	a.MarkFinal(1)
	b := NewNUTA(1)
	b.SetDelta(0, "u", strlang.EpsLang())
	b.MarkFinal(0)
	first := ""
	for i := 0; i < 200; i++ {
		ok, w := Included(a, b)
		if ok {
			t.Fatal("inclusion must fail")
		}
		if i == 0 {
			first = w.String()
			if first != "s" && first != "t" {
				t.Fatalf("witness %s, want s or t", first)
			}
		} else if w.String() != first {
			t.Fatalf("call %d returned %s, call 0 returned %s", i, w, first)
		}
	}
}

// TestIncludedConcurrent decides inclusion both ways on shared automata
// from several goroutines; under -race it shows that the decisions only
// read the NUTAs and their content automata.
func TestIncludedConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sa := randomNUTASpec(r)
	for len(sa.contents) < 4 {
		sa = randomNUTASpec(r)
	}
	a, b := sa.build(), sa.loosen(r).build()
	wantAB, _ := Included(a, b)
	wantBA, _ := Included(b, a)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if ok, _ := Included(a, b); ok != wantAB {
					t.Errorf("Included(a, b) = %v, want %v", ok, wantAB)
				}
				if ok, _ := Included(b, a); ok != wantBA {
					t.Errorf("Included(b, a) = %v, want %v", ok, wantBA)
				}
				a.Accepts(xmltree.MustParse("a(b c)"))
			}
		}()
	}
	wg.Wait()
}
