// Package strlang implements the regular string-language toolkit used by the
// distributed XML design algorithms of Abiteboul, Gottlob and Manna
// (“Distributed XML Design”, PODS 2009): nondeterministic finite automata
// with ε-transitions (nFAs), deterministic finite automata (dFAs), regular
// expressions (nREs), deterministic regular expressions (dREs,
// one-unambiguous languages in the sense of Brüggemann-Klein and Wood), and
// the delimited-state analysis (Ini/Fin sets and local automata A(q,q′)) of
// Section 6 of the paper.
//
// Conventions:
//
//   - States are dense integers 0..n-1 local to each automaton.
//   - Symbols are non-empty strings; the empty string is reserved for ε.
//   - DFAs are partial: a missing transition rejects.
//   - All constructions are exact; several (complement, inclusion,
//     minimization) are worst-case exponential, matching the PSPACE/EXPTIME
//     lower bounds the paper proves for the problems built on top of them.
//
// # Representation: interned alphabet, compact rows, bitset state sets
//
// Every decision procedure in the repository bottoms out in this package,
// so the automaton kernel is built for speed:
//
//   - Symbols are interned once into dense int32 ids by a process-wide
//     Interner (see Intern, LookupSymID, SymbolName). The string Symbol
//     remains the public currency — AddTransition, Succ, Step and friends
//     still take strings — but every hot loop can use the parallel *ID
//     methods (AddTransitionID, SuccID, StepID, AlphabetIDs) and never
//     hash a string. Because the interner is shared and append-only, the
//     automata of one design problem automatically agree on ids, which is
//     what makes cross-automaton constructions (products, inclusion,
//     grafting) pure integer work.
//
//   - Per-state transitions are compact rows: parallel slices of sorted
//     symbol ids and sorted duplicate-free target lists. Lookup is a
//     binary search over a handful of int32s; insertion keeps the sorted
//     invariant with an O(log k) search (duplicate suppression no longer
//     scans the whole out-degree). Rows cost memory proportional to the
//     state's actual out-degree even when the global id space is large.
//     Constructions that produce a whole automaton at once (Clone, Graft,
//     WithoutEps, Trim, Reverse, MapSymbols) collect each row's edges,
//     sort and deduplicate them once, and carve all rows out of a few
//     shared arrays instead of inserting edge by edge.
//
//   - State sets (IntSet) are []uint64 bitsets with word-wise
//     Union/Intersect/SubsetOf and a collision-free packed Key() for
//     subset constructions — no per-element string formatting.
//
//   - The per-state ε-closures and the name-sorted alphabet are computed
//     once and cached on the automaton until the next mutation, so
//     Determinize and Step chains never re-traverse ε-edges or rebuild
//     symbol sets. The caches are published atomically: two goroutines
//     reading one finished automaton may both build a cache on first
//     use, but never race. Inclusion and the tree-automaton constructions work on
//     ε-free forms (WithoutEps) built once per decision or per automaton,
//     and step them with MoveInto, which only reads.
package strlang
