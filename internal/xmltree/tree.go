// Package xmltree implements the structural abstraction of XML documents
// used throughout the paper: finite, ordered, unranked trees with nodes
// labeled over an alphabet (Section 2.1.1). It provides the term syntax
// used in the paper's examples (“s0(a f1 b(f2))”), the node predicates
// child-str and anc-str, and import/export to concrete XML via
// encoding/xml.
package xmltree

import (
	"fmt"
	"strings"
	"unicode"
)

// Tree is a finite ordered unranked tree with string labels. The zero value
// is not a valid tree; use New or Parse.
type Tree struct {
	Label    string
	Children []*Tree
}

// New returns a tree with the given root label and children.
func New(label string, children ...*Tree) *Tree {
	return &Tree{Label: label, Children: children}
}

// Leaf returns a leaf node with the given label.
func Leaf(label string) *Tree { return &Tree{Label: label} }

// IsLeaf reports whether t has no children.
func (t *Tree) IsLeaf() bool { return len(t.Children) == 0 }

// Size returns ‖t‖, the number of nodes of t.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Clone returns a deep copy of t.
func (t *Tree) Clone() *Tree {
	out := &Tree{Label: t.Label}
	if len(t.Children) > 0 {
		out.Children = make([]*Tree, len(t.Children))
		for i, c := range t.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Equal reports whether t and u are identical trees.
func (t *Tree) Equal(u *Tree) bool {
	if t.Label != u.Label || len(t.Children) != len(u.Children) {
		return false
	}
	for i, c := range t.Children {
		if !c.Equal(u.Children[i]) {
			return false
		}
	}
	return true
}

// ChildStr returns child-str(t): the labels of t's children in left-to-right
// order (Section 2.1.1).
func (t *Tree) ChildStr() []string {
	out := make([]string, len(t.Children))
	for i, c := range t.Children {
		out[i] = c.Label
	}
	return out
}

// Walk visits every node of t in document (preorder, left-to-right) order,
// passing the node and its ancestor label string anc-str (which includes
// the node's own label, as in the paper). Walk stops early if f returns
// false.
func (t *Tree) Walk(f func(node *Tree, ancStr []string) bool) {
	var rec func(n *Tree, anc []string) bool
	rec = func(n *Tree, anc []string) bool {
		anc = append(anc, n.Label)
		if !f(n, anc) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c, anc) {
				return false
			}
		}
		return true
	}
	rec(t, nil)
}

// Labels returns the set of labels occurring in t, in first-visit order.
func (t *Tree) Labels() []string {
	seen := map[string]bool{}
	var out []string
	t.Walk(func(n *Tree, _ []string) bool {
		if !seen[n.Label] {
			seen[n.Label] = true
			out = append(out, n.Label)
		}
		return true
	})
	return out
}

// MapLabels returns a copy of t with every label l replaced by f(l).
func (t *Tree) MapLabels(f func(string) string) *Tree {
	out := &Tree{Label: f(t.Label)}
	if len(t.Children) > 0 {
		out.Children = make([]*Tree, len(t.Children))
		for i, c := range t.Children {
			out.Children[i] = c.MapLabels(f)
		}
	}
	return out
}

// String renders t in the paper's term syntax, e.g. "s(a b(c d))".
func (t *Tree) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Tree) write(b *strings.Builder) {
	b.WriteString(t.Label)
	if len(t.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range t.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		c.write(b)
	}
	b.WriteByte(')')
}

// --- term syntax parser ---

func isLabelRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) ||
		c == '_' || c == '~' || c == '^' || c == '.' || c == '#' || c == '\''
}

type treeParser struct {
	src []rune
	pos int
}

// Parse parses the term syntax: label, optionally followed by a
// parenthesized, whitespace/comma-separated child list, e.g.
// "eurostat(f1 nationalIndex(f2) f3)".
func Parse(src string) (*Tree, error) {
	p := &treeParser{src: []rune(src)}
	t, err := p.parseTree()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("tree %q: trailing input at offset %d", src, p.pos)
	}
	return t, nil
}

// MustParse is Parse that panics on error, for tests and fixed tables.
func MustParse(src string) *Tree {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

func (p *treeParser) skipSpace() {
	for p.pos < len(p.src) && (unicode.IsSpace(p.src[p.pos]) || p.src[p.pos] == ',') {
		p.pos++
	}
}

func (p *treeParser) parseTree() (*Tree, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelRune(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("tree: expected label at offset %d", p.pos)
	}
	t := &Tree{Label: string(p.src[start:p.pos])}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("tree: missing ')'")
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			c, err := p.parseTree()
			if err != nil {
				return nil, err
			}
			t.Children = append(t.Children, c)
		}
	}
	return t, nil
}
