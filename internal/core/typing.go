package core

import (
	"fmt"

	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// Typing is a positional mapping from the functions f1…fn of a kernel to
// types τ1…τn (Section 2.3). Each type is an EDTD with a single start name
// whose element name is the “extra” root label sᵢ labelling every tree of
// [τᵢ]; the root name must not occur in any content model.
type Typing []*schema.EDTD

// CheckTyping validates the structural requirements on a typing for a
// kernel with n functions.
func CheckTyping(n int, typing Typing) error {
	if len(typing) != n {
		return fmt.Errorf("core: typing has %d types for %d functions", len(typing), n)
	}
	for i, tau := range typing {
		if tau == nil {
			return fmt.Errorf("core: type %d is nil", i+1)
		}
		if len(tau.Starts) != 1 {
			return fmt.Errorf("core: type %d has %d start names, want 1", i+1, len(tau.Starts))
		}
		start := tau.Starts[0]
		for _, name := range tau.SpecializedNames() {
			for _, sym := range tau.Rule(name).UsefulSymbols() {
				if sym == start {
					return fmt.Errorf("core: type %d: root name %s occurs in the content model of %s",
						i+1, start, name)
				}
			}
		}
	}
	return nil
}

// DTDTyping lifts DTDs (with fresh roots) into a Typing, following the
// R-SDTD view of Section 3.3.
func DTDTyping(dtds ...*schema.DTD) Typing {
	out := make(Typing, len(dtds))
	for i, d := range dtds {
		out[i] = d.ToEDTD()
	}
	return out
}

// ValidExtension reports whether each tree of ext is valid for the
// corresponding type (tᵢ ⊨ τᵢ), keyed by function symbol.
func ValidExtension(funcs []string, typing Typing, ext map[string]*xmltree.Tree) bool {
	for i, f := range funcs {
		t, ok := ext[f]
		if !ok || typing[i].Validate(t) != nil {
			return false
		}
	}
	return true
}

// RootContent returns the content model language of τᵢ's start name: the
// forests that fᵢ may contribute, as a word language over τᵢ's specialized
// names.
func RootContent(tau *schema.EDTD) *strlang.NFA {
	return tau.Rule(tau.Starts[0]).Lang()
}

// WordTyping is a typing for a kernel string: one string language per
// function.
type WordTyping []*strlang.NFA

// WordTypingFromRegexes parses each source as a regex and returns the
// typing.
func WordTypingFromRegexes(sources ...string) (WordTyping, error) {
	out := make(WordTyping, len(sources))
	for i, src := range sources {
		re, err := strlang.ParseRegex(src)
		if err != nil {
			return nil, fmt.Errorf("core: type %d: %w", i+1, err)
		}
		out[i] = strlang.RegexNFA(re)
	}
	return out, nil
}

// MustWordTyping is WordTypingFromRegexes panicking on error.
func MustWordTyping(sources ...string) WordTyping {
	wt, err := WordTypingFromRegexes(sources...)
	if err != nil {
		panic(err)
	}
	return wt
}

// LeqWord reports whether (τn) ≤ (τ′n) componentwise ([τᵢ] ⊆ [τ′ᵢ]).
func LeqWord(a, b WordTyping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if ok, _ := strlang.Included(a[i], b[i]); !ok {
			return false
		}
	}
	return true
}

// LtWord reports whether (τn) < (τ′n): ≤ and strictly smaller somewhere.
func LtWord(a, b WordTyping) bool {
	if !LeqWord(a, b) {
		return false
	}
	for i := range a {
		if ok, _ := strlang.Included(b[i], a[i]); !ok {
			return true
		}
	}
	return false
}

// EquivWord reports whether (τn) ≡ (τ′n) componentwise.
func EquivWord(a, b WordTyping) bool { return LeqWord(a, b) && LeqWord(b, a) }

// LeqTyping reports componentwise tree-language inclusion of typings.
func LeqTyping(a, b Typing) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if ok, _ := schema.IncludedEDTD(a[i], b[i]); !ok {
			return false
		}
	}
	return true
}

// EquivTyping reports componentwise tree-language equivalence. Each
// pair of components is compared in one equivalence check, which turns
// each side into a tree automaton once.
func EquivTyping(a, b Typing) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if ok, _ := schema.EquivalentEDTD(a[i], b[i]); !ok {
			return false
		}
	}
	return true
}
