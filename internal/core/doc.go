// Package core implements the paper's primary contribution: the theory of
// distributed XML design of Abiteboul, Gottlob and Manna (PODS 2009).
//
// Bottom-up design (Section 3): composing a kernel document with a typing
// into the global type T(τn), deciding cons[S] for S ∈ {R-DTD, R-SDTD,
// R-EDTD}, and constructing typeT(τn) per content-model formalism R with
// the worst-case sizes of Table 2.
//
// Top-down design (Sections 4–7): the typing notions sound / maximal /
// complete / local / perfect (Definition 12), the verification problems
// loc/ml/perf[S] and the existence problems ∃-loc/∃-ml/∃-perf[S], solved
// for words via the perfect automaton Ω(A, w) of Section 6 (Algorithm 1)
// and the Dec(Ωi) cell decomposition of Section 6.1, for kernel boxes
// (Section 7), and for trees via the reductions of Section 4. The tree
// reductions are one engine (topdown.go): each class assigns specialized
// names κ to the kernel's element nodes and solves one box design per
// node (Corollary 4.14). An R-EDTD design normalizes its type, guesses κ
// or computes the perfect κ, and verifies every combination; an R-DTD or
// R-SDTD design is the same procedure at one fixed, singleton κ — labels
// (Theorem 4.2) or witnesses (Theorem 4.5) — where per-node locality is
// locality and nothing is verified again.
//
// Design values derive once. The top-down procedures all reduce to the
// same derived objects: the node designs of every κ asked for (Theorems
// 4.2 and 4.5, Corollaries 4.14 and 4.16), the perfect automaton Ω, the
// Dec(Ωi) cells and the sound cell-union tuples (Theorems 6.10–6.11). A
// BoxDesign, WordDesign, DTDDesign, SDTDDesign or EDTDDesign builds each
// of them on first use and reuses it in every procedure later called on
// the same value — ∃-loc, ∃-ml, ∃-perf and the verifiers. The sound
// tuples come from a frontier search: the target is determinized on
// demand, each box and cell maps a state of that DFA to the set of states
// its words reach, and a candidate is pruned or found sound by bitset
// tests on the set its prefix reaches, with no automaton built per
// candidate. Procedure
// results are not kept, and every check of a typing passed in runs on
// every call. Nothing is shared between design values. The consequences
// for callers:
//   - a design is not safe for concurrent use;
//   - its Target, Type and Kernel must not be modified in place after
//     first use (replacing them, or toggling AllowTrivialTypes or
//     DisableSearchPruning, rebuilds what depends on them);
//   - slices handed out are copies, so changing them does not change
//     later answers.
package core
