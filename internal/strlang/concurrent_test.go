package strlang

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentFirstUse: the alphabet and ε-closure caches are
// published atomically, so the first uses of one finished automaton may
// come from several goroutines at once. Under -race this pins that they
// do not race; in any mode, that every goroutine reads the same answers
// as a single-threaded twin.
func TestConcurrentFirstUse(t *testing.T) {
	// s0 -a-> s1 -ε-> s2 -b-> s3 (final), s1 -c-> s4 (a dead end).
	buildNFA := func() *NFA {
		a := NewNFA()
		s1, s2, s3, s4 := a.AddState(), a.AddState(), a.AddState(), a.AddState()
		a.AddTransition(a.Start(), "a", s1)
		a.AddEps(s1, s2)
		a.AddTransition(s2, "b", s3)
		a.AddTransition(s1, "c", s4)
		a.MarkFinal(s3)
		return a
	}
	buildDFA := func() *DFA {
		d := NewDFA()
		q1, q2 := d.AddState(false), d.AddState(true)
		d.SetTransition(d.Start(), "a", q1)
		d.SetTransition(q1, "b", q2)
		d.SetTransition(q1, "c", q1)
		return d
	}
	nfaAnswers := func(a *NFA) string {
		clos := a.ClosureOf(1)
		step := NewIntSet()
		a.StepIDInto(step, a.ClosureOf(a.Start()), Intern("a"))
		return fmt.Sprint(a.AlphabetIDs(), clos.Sorted(), step.Sorted(), a.UsefulSymbols())
	}
	want := nfaAnswers(buildNFA())
	wantDFA := slices.Clone(buildDFA().AlphabetIDs())

	a, d := buildNFA(), buildDFA()
	const workers = 8
	got := make([]string, workers)
	gotDFA := make([][]int32, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = nfaAnswers(a)
			gotDFA[i] = d.AlphabetIDs()
		}()
	}
	wg.Wait()
	for i := range workers {
		if got[i] != want {
			t.Errorf("goroutine %d read the NFA as %s, want %s", i, got[i], want)
		}
		if !slices.Equal(gotDFA[i], wantDFA) {
			t.Errorf("goroutine %d read the DFA alphabet %v, want %v", i, gotDFA[i], wantDFA)
		}
	}
}
