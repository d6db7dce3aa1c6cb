// Package schema implements the paper's abstractions of XML schema
// languages (Section 2.2): R-DTDs (Definition 3), R-SDTDs (Definition 6)
// and R-EDTDs (Definition 7), where the content-model formalism R varies
// over nFAs, dFAs, nREs and dREs. It provides validation, reducedness
// (Definition 5), the dual vertical automata (Definition 4), the
// single-type requirement, equivalence for each class, normalization of
// EDTDs (Lemma 4.10), and concrete syntaxes (the arrow-grammar notation of
// the paper's figures and W3C <!ELEMENT …> declarations).
package schema

import (
	"fmt"
	"sync"

	"dxml/internal/strlang"
)

// Kind identifies the formalism R used for content models.
type Kind int

// The four content-model formalisms of the paper.
const (
	KindNFA Kind = iota // nondeterministic finite automata
	KindDFA             // deterministic finite automata
	KindNRE             // (possibly nondeterministic) regular expressions
	KindDRE             // deterministic (one-unambiguous) regular expressions
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNFA:
		return "nFA"
	case KindDFA:
		return "dFA"
	case KindNRE:
		return "nRE"
	case KindDRE:
		return "dRE"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds lists the four formalisms, in the paper's Table 2 order.
var AllKinds = []Kind{KindNFA, KindNRE, KindDFA, KindDRE}

// Content is a content model: a regular language in one of the four
// formalisms. The language is always available as an NFA; regex kinds also
// carry their expression, and KindDFA carries the deterministic automaton.
type Content struct {
	kind Kind
	re   strlang.Regex // non-nil for KindNRE/KindDRE
	nfa  *strlang.NFA  // always non-nil
	dfa  *strlang.DFA  // non-nil for KindDFA

	// compiled caches the minimal DFA of the language, computed on first
	// use. Content models are immutable and shared (EDTD.Clone and SubType
	// alias them), so one compilation serves every consumer — in particular
	// the streaming validation machines, which step content DFAs per event.
	compileOnce sync.Once
	compiled    *strlang.DFA
}

// NewContentRegex builds a content model of a regex kind. For KindDRE the
// expression must be syntactically deterministic.
func NewContentRegex(kind Kind, re strlang.Regex) (*Content, error) {
	switch kind {
	case KindNRE:
	case KindDRE:
		if ok, sym := strlang.RegexDeterministic(re); !ok {
			return nil, fmt.Errorf("schema: regex %s is not deterministic (symbol %s)", strlang.RegexString(re), sym)
		}
	default:
		return nil, fmt.Errorf("schema: NewContentRegex with automaton kind %s", kind)
	}
	return &Content{kind: kind, re: re, nfa: strlang.RegexNFA(re)}, nil
}

// NewContentNFA builds a KindNFA content model.
func NewContentNFA(nfa *strlang.NFA) *Content {
	return &Content{kind: KindNFA, nfa: nfa}
}

// NewContentDFA builds a KindDFA content model.
func NewContentDFA(dfa *strlang.DFA) *Content {
	return &Content{kind: KindDFA, dfa: dfa, nfa: dfa.NFA()}
}

// FromNFA represents the language of nfa in the given kind. For KindDFA it
// determinizes; for the regex kinds it converts via state elimination
// (KindNRE) or the Brüggemann-Klein/Wood construction (KindDRE, which fails
// when the language is not one-unambiguous).
func FromNFA(kind Kind, nfa *strlang.NFA) (*Content, error) {
	switch kind {
	case KindNFA:
		return NewContentNFA(nfa), nil
	case KindDFA:
		return NewContentDFA(nfa.Determinize().Minimize()), nil
	case KindNRE:
		return &Content{kind: KindNRE, re: strlang.RegexFromNFA(nfa), nfa: nfa}, nil
	case KindDRE:
		re, ok := strlang.BuildDRE(nfa)
		if !ok {
			return nil, fmt.Errorf("schema: language is not one-unambiguous, no dRE exists")
		}
		return &Content{kind: KindDRE, re: re, nfa: strlang.RegexNFA(re)}, nil
	}
	return nil, fmt.Errorf("schema: unknown kind %d", int(kind))
}

// MustContent parses a regex in the concrete syntax and wraps it as a
// content model of the given kind (panicking on error; for tests and fixed
// tables). Automaton kinds are built from the parsed regex.
func MustContent(kind Kind, src string) *Content {
	re := strlang.MustParseRegex(src)
	switch kind {
	case KindNRE, KindDRE:
		c, err := NewContentRegex(kind, re)
		if err != nil {
			panic(err)
		}
		return c
	case KindNFA:
		return NewContentNFA(strlang.RegexNFA(re))
	case KindDFA:
		return NewContentDFA(strlang.RegexNFA(re).Determinize().Minimize())
	}
	panic("schema: unknown kind")
}

// Kind returns the formalism of c.
func (c *Content) Kind() Kind { return c.kind }

// Lang returns the content language as an NFA (shared; treat as
// read-only).
func (c *Content) Lang() *strlang.NFA { return c.nfa }

// Regex returns the expression for regex kinds (nil otherwise).
func (c *Content) Regex() strlang.Regex { return c.re }

// DFA returns the automaton for KindDFA (nil otherwise).
func (c *Content) DFA() *strlang.DFA { return c.dfa }

// CompiledDFA returns the minimal trimmed DFA of the content language,
// compiling it on first use and caching it on the (immutable, shared)
// content model. The result's alphabet is exactly the language's useful
// symbols, and it is safe for concurrent read-only stepping.
func (c *Content) CompiledDFA() *strlang.DFA {
	c.compileOnce.Do(func() {
		c.compiled = c.nfa.Determinize().Minimize()
	})
	return c.compiled
}

// Size returns the representation size of c in its own formalism: regex
// AST nodes for regex kinds, states+transitions for automaton kinds. This
// is the measure behind the paper's Table 2 size rows.
func (c *Content) Size() int {
	switch c.kind {
	case KindNRE, KindDRE:
		return strlang.RegexSize(c.re)
	case KindDFA:
		return c.dfa.Size()
	default:
		return c.nfa.Size()
	}
}

// Accepts reports whether the content language contains w.
func (c *Content) Accepts(w []strlang.Symbol) bool { return c.nfa.Accepts(w) }

// AcceptsEps reports whether ε is in the content language.
func (c *Content) AcceptsEps() bool { return c.nfa.AcceptsEps() }

// UsefulSymbols returns the symbols occurring in the content language (its
// “alphabet” in the sense of Definition 4).
func (c *Content) UsefulSymbols() []strlang.Symbol { return c.nfa.UsefulSymbols() }

// String renders the content model: the regex when available, otherwise a
// regex recovered from the automaton.
func (c *Content) String() string {
	if c.re != nil {
		return strlang.RegexString(c.re)
	}
	return strlang.RegexString(strlang.RegexFromNFA(c.nfa))
}

// EpsContent returns a content model for {ε} in the given kind.
func EpsContent(kind Kind) *Content {
	c, err := FromNFA(kind, strlang.EpsLang())
	if err != nil {
		panic(err) // {ε} is representable in every kind
	}
	return c
}
