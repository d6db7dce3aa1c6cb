// Package stream implements one-pass, constant-memory streaming
// validation of XML documents against the paper's schema abstractions.
//
// The tree-based validators (schema.EDTD.Validate and friends) first
// materialize a full xmltree.Tree, so their memory footprint scales with
// document *size*. This package compiles a schema.EDTD once into an
// immutable Machine and drives it from a SAX-style event source —
// StartElement / Text / EndElement — so validation memory scales with
// document *depth* only: exactly the property that lets the paper's
// resource peers check million-node fragments locally and cheaply.
//
// # Why single-type EDTDs stream
//
// For a single-type EDTD (the paper's R-SDTD, Definition 6) no content
// model's useful alphabet contains two distinct specializations of the
// same element name, and no two start names share an element name. The
// witness assignment is therefore *forced* top-down: the root's
// specialized name is determined by its label, and each child's by its
// label plus its parent's witness. A single left-to-right pass suffices —
// each open element carries one precompiled content-DFA state, stepped
// in O(1) per child through a flat table indexed by state and the child's
// machine-local label symbol (resolved once per distinct tag spelling by
// the push parser), and acceptance is checked when the element closes.
// Peak memory is one small frame per open element: O(depth).
//
// # Limits for general EDTDs
//
// General (non-single-type) R-EDTDs admit no deterministic top-down
// assignment: which specialization a node gets may depend on its entire
// subtree, so no streaming algorithm can keep a single witness per open
// element. The Machine still validates them in one pass by on-the-fly
// subset tracking: for each open element it maintains, per candidate
// specialization of its label, the NFA state set of that candidate's
// content automaton run over the *sets* of names assignable to the
// children seen so far (the bottom-up membership computation of
// uta.NUTA.PossibleStates, reorganized along the event stream). Memory is
// still proportional to depth, with a per-frame factor of
// O(specializations × content-NFA states) — constant in the document,
// polynomial in the schema. Verdicts are identical to EDTD.Validate; only
// the early-failure position may differ (the subset tracker detects some
// dead ends only when an element closes).
//
// # Event sources
//
// The primary front-end is the push parser (Feeder): a resumable
// incremental tokenizer that accepts a document's bytes in arbitrary
// chunks as a network delivers them, with Close finalizing the verdict.
// Machine.NewFeeder binds one to a pooled Runner; NewInnerFeeder splices
// a fragment's forest (skipping its root) into an enclosing validation —
// the p2p wire feeds received frames straight into it, which is what
// makes mid-transfer rejection possible. A Feeder whose handler is a
// single-type Runner validates in place, in the same loop that finds the
// tags: a start tag the runner accepts steps the content DFA and pushes
// a frame, a complete element pops one, and text is skipped, with no
// Handler call; the root and every rejected event go through the
// runner's StartElement and EndElement, which define every verdict and
// error text. General EDTDs and custom handlers receive every event
// through the Handler interface. The pull front-ends are thin
// adapters over it: StreamXML/ValidateReader (io.Reader),
// Machine.ValidateTree (an in-memory xmltree.Tree walker,
// differential-testable against EDTD.Validate). StreamKernel walks a
// kernel document, pausing at docking points so the p2p layer validates
// distributed documents as streams without materializing the extension.
// Machines are immutable after Compile and safe for concurrent use;
// Runners are pooled (sync.Pool) so concurrent peers share one compiled
// Machine with near-zero per-validation allocation on the single-type
// path, and the general-EDTD subset tracker steps through per-frame
// scratch arenas, so the slow path is allocation-free at steady state
// too.
package stream

import (
	"sync"

	"dxml/internal/schema"
	"dxml/internal/strlang"
)

// Sym is a tag label resolved by a Handler (Handler.Resolve). For a
// Runner it is the machine-local dense index of the element label, which
// indexes the compiled tables directly; NoSym marks a label the machine
// does not know.
type Sym int32

// NoSym is the symbol of a label the handler does not know.
const NoSym Sym = -1

// Handler receives SAX-style structural events. Implementations must
// return a non-nil error to stop the source; Runner returns its sticky
// validation error.
type Handler interface {
	// Resolve maps an element label to the handler's symbol for it. It
	// must be safe to call at any time and must not depend on the
	// events seen so far: sources resolve each distinct tag spelling
	// once and hand the cached symbol to every StartElement of it.
	Resolve(label string) Sym
	// StartElement opens an element with the given label; sym is
	// Resolve(label).
	StartElement(label string, sym Sym) error
	// Text reports character data. The paper's structural abstraction
	// ignores it; Runner accepts and discards it.
	Text() error
	// EndElement closes the most recently opened element.
	EndElement() error
}

// startElement resolves label and opens it: the path of sources that
// hold labels rather than cached symbols (tree and kernel walkers).
func startElement(h Handler, label string) error {
	return h.StartElement(label, h.Resolve(label))
}

// stProg is the compiled per-specialized-name program of the single-type
// fast path: the name's minimal content DFA re-keyed by element label.
// Inside one content model of a single-type EDTD every label forces one
// child witness, so the DFA's specialized-name symbols and the labels
// are in one-to-one correspondence and a child steps by two slice loads.
type stProg struct {
	start int32
	// child maps a label to its forced child witness (a machine-local
	// name index), -1 where the content model has none.
	child []int32
	// next is δ as a flat [state*labels+label] table, -1 where undefined.
	next  []int32
	final []bool
}

// genProg is the per-specialized-name program of the general-EDTD subset
// tracker.
type genProg struct {
	// nfa is the content automaton over specialized-name symbols, with
	// ε-closures primed so concurrent stepping is read-only.
	nfa *strlang.NFA
	// startClos is the ε-closed initial state set (shared, read-only).
	startClos strlang.IntSet
	finals    strlang.IntSet
	sym       int32 // interned id of this specialized name as a symbol
}

// Machine is a schema.EDTD compiled for streaming validation. It is
// immutable after Compile and safe for concurrent use by any number of
// Runners.
type Machine struct {
	singleType bool
	names      []string // specialized names, machine-local index order

	// labels are the element labels, Sym order; labelIdx inverts them.
	// Both are read-only after Compile, so resolving takes no lock.
	labels   []string
	labelIdx map[string]Sym

	// Candidate specializations and start names per label, in name
	// order (Σ̃(·) restricted to the starts, and Σ̃(·) itself).
	startsByLabel [][]int32
	specsByLabel  [][]int32
	// starts is the set of start name indices — the incremental
	// revalidator's root acceptance check.
	starts []int32

	progs []stProg  // single-type fast path
	gen   []genProg // general-EDTD subset tracking

	pool sync.Pool
}

// Compile builds the streaming Machine for e. Single-type EDTDs (checked
// with EDTD.IsSingleType) get the deterministic DFA fast path; general
// EDTDs get the subset tracker. The compilation interns every specialized
// name and primes all automaton caches, so the returned Machine performs
// no writes to shared state while running.
func Compile(e *schema.EDTD) *Machine {
	names := e.SpecializedNames()
	m := &Machine{names: names, labelIdx: make(map[string]Sym, len(names))}
	m.pool.New = func() any { return &Runner{m: m} }
	idx := make(map[string]int32, len(names))
	nameLabel := make([]Sym, len(names))
	for i, n := range names {
		idx[n] = int32(i)
		el := e.Elem(n)
		l, ok := m.labelIdx[el]
		if !ok {
			l = Sym(len(m.labels))
			m.labelIdx[el] = l
			m.labels = append(m.labels, el)
		}
		nameLabel[i] = l
	}
	m.specsByLabel = make([][]int32, len(m.labels))
	for i, l := range nameLabel {
		m.specsByLabel[l] = append(m.specsByLabel[l], int32(i))
	}
	m.startsByLabel = make([][]int32, len(m.labels))
	for _, s := range e.Starts {
		i := idx[s]
		m.starts = append(m.starts, i)
		m.startsByLabel[nameLabel[i]] = append(m.startsByLabel[nameLabel[i]], i)
	}
	single, _ := e.IsSingleType()
	m.singleType = single
	if single {
		m.compileSingleType(e, idx, nameLabel)
	} else {
		m.compileGeneral(e)
	}
	return m
}

// SingleType reports whether the machine runs the deterministic
// single-type fast path.
func (m *Machine) SingleType() bool { return m.singleType }

// resolve returns the machine-local symbol of an element label, NoSym if
// no specialized name of the machine carries it. It reads only tables
// fixed at Compile, so any number of goroutines may call it lock-free.
func (m *Machine) resolve(label string) Sym {
	if l, ok := m.labelIdx[label]; ok {
		return l
	}
	return NoSym
}

// known reports whether sym indexes this machine's label tables.
func (m *Machine) known(sym Sym) bool { return uint(sym) < uint(len(m.labels)) }

// step returns δ(state, sym) of p's content DFA, -1 where undefined. sym
// must be a known label with a child witness in p.
func (m *Machine) step(p *stProg, state int32, sym Sym) int32 {
	return p.next[int(state)*len(m.labels)+int(sym)]
}

func (m *Machine) compileSingleType(e *schema.EDTD, idx map[string]int32, nameLabel []Sym) {
	nl := len(m.labels)
	m.progs = make([]stProg, len(m.names))
	for i, n := range m.names {
		rule := e.Rule(n)
		dfa := rule.CompiledDFA()
		p := stProg{start: int32(dfa.Start()), child: make([]int32, nl)}
		for l := range p.child {
			p.child[l] = -1
		}
		for _, b := range rule.UsefulSymbols() {
			p.child[nameLabel[idx[b]]] = idx[b]
		}
		states := dfa.NumStates()
		p.final = make([]bool, states)
		p.next = make([]int32, states*nl)
		for q := range states {
			p.final[q] = dfa.IsFinal(q)
		}
		for j := range p.next {
			p.next[j] = -1
		}
		for l, w := range p.child {
			if w < 0 {
				continue
			}
			sid := strlang.Intern(m.names[w])
			for q := range states {
				if t, ok := dfa.NextID(q, sid); ok {
					p.next[q*nl+l] = int32(t)
				}
			}
		}
		m.progs[i] = p
	}
}

func (m *Machine) compileGeneral(e *schema.EDTD) {
	m.gen = make([]genProg, len(m.names))
	for i, n := range m.names {
		nfa := e.Rule(n).Lang()
		m.gen[i] = genProg{
			nfa:       nfa,
			startClos: nfa.ClosureOf(nfa.Start()),
			finals:    nfa.Finals(),
			sym:       strlang.Intern(n),
		}
	}
}

// NewRunner returns a pooled Runner ready to consume one document's
// events. Release it when done so concurrent validations reuse its
// frames.
func (m *Machine) NewRunner() *Runner {
	r := m.pool.Get().(*Runner)
	r.reset()
	return r
}
