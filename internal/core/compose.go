package core

import (
	"fmt"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// Compose builds the nFA-EDTD T(τn) of Section 3.1 for a kernel T and an
// EDTD-typing (τn), with [T(τn)] = extT(τn) (Theorem 3.2). The
// construction runs in polynomial time and the result is linear in the
// input (Proposition 3.1).
//
// Specialized names of the result: each kernel node x labeled a becomes
// the fresh witness "a^k" (k the preorder index of x); every non-root name
// ã of τᵢ becomes "ã@i" (making the Σ̃ᵢ disjoint, as the construction
// assumes).
func Compose(k *axml.Kernel, typing Typing) (*schema.EDTD, error) {
	if err := CheckTyping(k.NumFuncs(), typing); err != nil {
		return nil, err
	}
	funcs := k.Funcs()
	fnIndex := map[string]int{}
	for i, f := range funcs {
		fnIndex[f] = i
	}

	// Preorder ids for kernel nodes.
	nodeID := map[*xmltree.Tree]int{}
	counter := 0
	k.Tree().Walk(func(n *xmltree.Tree, _ []string) bool {
		nodeID[n] = counter
		counter++
		return true
	})
	witness := func(n *xmltree.Tree) string {
		return fmt.Sprintf("%s^%d", n.Label, nodeID[n])
	}
	imported := func(i int, name string) string {
		return fmt.Sprintf("%s@%d", name, i+1)
	}

	out := schema.NewEDTD(schema.KindNFA, witness(k.Tree()), k.Tree().Label)

	// Import the rules of each τᵢ, dropping the root name.
	for i, tau := range typing {
		start := tau.Starts[0]
		for _, name := range tau.SpecializedNames() {
			if name == start {
				continue
			}
			renamed := tau.Rule(name).Lang().MapSymbols(func(s string) string { return imported(i, s) })
			out.DeclareName(imported(i, name), tau.Elem(name))
			out.MustSetRule(imported(i, name), schema.NewContentNFA(renamed))
		}
	}

	// Rules for the kernel's witnesses.
	k.Tree().Walk(func(n *xmltree.Tree, _ []string) bool {
		if k.IsFunc(n.Label) {
			return true
		}
		w := witness(n)
		out.DeclareName(w, n.Label)
		if n.IsLeaf() {
			out.MustSetRule(w, schema.NewContentNFA(strlang.EpsLang()))
			return true
		}
		parts := make([]*strlang.NFA, 0, len(n.Children))
		for _, c := range n.Children {
			if i, isFn := fnIndex[c.Label]; isFn {
				root := RootContent(typing[i])
				parts = append(parts, root.MapSymbols(func(s string) string { return imported(i, s) }))
			} else {
				parts = append(parts, strlang.SymbolLang(witness(c)))
			}
		}
		out.MustSetRule(w, schema.NewContentNFA(strlang.ConcatAll(parts...)))
		return true
	})
	return out, nil
}

// ExtensionLang returns extT(τn) as a tree automaton-backed EDTD; it is
// Compose with the Theorem 3.2 guarantee spelled out at call sites.
func ExtensionLang(k *axml.Kernel, typing Typing) (*schema.EDTD, error) {
	return Compose(k, typing)
}
