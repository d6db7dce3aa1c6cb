package stream

import (
	"fmt"

	"dxml/internal/axml"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// Incremental is a checkpointed result tree: a shadow of a document (or
// of a kernel document's extension) that stores, per node, the node's
// *witness set* — the specializations of its label whose content model
// admits the subtree — plus subtree aggregates. The root is accepted
// iff its witness set meets the machine's start names, which makes the
// stored verdict exactly the machine's from-scratch verdict at every
// version (pinned by the differential mutation corpus in the tests).
//
// The point is the update rule. Applying a subtree edit recomputes
// witness sets bottom-up inside the edited subtree only, then walks the
// ancestor chain re-running each ancestor's content automaton over its
// (cached) child summaries — and stops as soon as an ancestor's witness
// set comes out unchanged, because a node's contribution to its
// parent's content word is exactly its label and witness set. Subtree
// aggregates ride the same walk. The cost is O(‖edit‖ + Σ fan-out along
// the recomputed chain) ≤ O(‖edit‖ + depth·width) instead of
// O(‖document‖); on real documents the chain almost always stops at the
// edited node's parent, which is what makes a single-leaf edit on a
// 10⁵-node fragment orders of magnitude cheaper than revalidating from
// scratch (see the incremental benchmarks and EXPERIMENTS.md).
//
// In kernel mode each docking point is a *slot*: a transparent node
// holding the fragment's forest. A slot contributes no symbol of its
// own — its children splice into the kernel parent's content word,
// matching extension semantics (Section 2.3) — so fragment edits
// propagate through the kernel part exactly as far as they change
// witness sets, and no further.
//
// An Incremental is not safe for concurrent use; the live federation
// serializes edits from all its feeds through one lock.
type Incremental struct {
	m     *Machine
	root  *incNode
	slots map[string]*incNode // kernel mode: docking point → slot

	valid bool

	// Per-edit recheck accounting, in flat serialized bytes
	// (len(label)+4 per node — the node's own tag cost, indentation
	// excluded, so the measure is depth-free and edit-local).
	lastReval   int
	lastSkipped int

	// Scratch for witness-set computation (general path state sets and
	// the set under comparison), reused across edits.
	witScratch []int32
	setA, setB strlang.IntSet
	tmp        strlang.IntSet
}

// incNode is one node of the result tree.
type incNode struct {
	parent *incNode
	idx    int  // index in parent.kids
	slot   bool // docking-point slot: contributes its children, not itself

	label string
	sym   Sym // machine-local label, NoSym when the label is foreign

	kids []*incNode
	wits []int32 // admissible specializations, in machine candidate order

	nodes int // subtree node count (slots: children only)
	bytes int // subtree flat bytes  (slots: children only)
}

func ownBytes(label string) int { return len(label) + 4 } // <x/>\n

// NewIncremental builds the result tree of a single document: the
// validation surface a resource peer keeps for its own fragment.
func (m *Machine) NewIncremental(doc *xmltree.Tree) *Incremental {
	inc := &Incremental{m: m, slots: map[string]*incNode{}}
	inc.root = inc.build(doc, nil)
	inc.valid = inc.rootValid()
	inc.lastSkipped = 0
	return inc
}

// NewKernelIncremental builds the result tree of a kernel document's
// extension: kernel element nodes shadowed as themselves and each
// docking point as a slot holding frags[fn]'s forest. This is the
// kernel peer's live state — the verdict it maintains across edits.
func (m *Machine) NewKernelIncremental(k *axml.Kernel, frags map[string]*xmltree.Tree) (*Incremental, error) {
	for _, fn := range k.Funcs() {
		if frags[fn] == nil {
			return nil, fmt.Errorf("stream: no fragment for docking point %s", fn)
		}
	}
	inc := &Incremental{m: m, slots: map[string]*incNode{}}
	var rec func(t *xmltree.Tree, parent *incNode) *incNode
	rec = func(t *xmltree.Tree, parent *incNode) *incNode {
		if k.IsFunc(t.Label) {
			frag := frags[t.Label]
			slot := &incNode{parent: parent, slot: true, label: frag.Label, sym: NoSym}
			for i, c := range frag.Children {
				kid := inc.build(c, slot)
				kid.idx = i
				slot.kids = append(slot.kids, kid)
				slot.nodes += kid.nodes
				slot.bytes += kid.bytes
			}
			inc.slots[t.Label] = slot
			return slot
		}
		n := &incNode{parent: parent, label: t.Label, sym: m.resolve(t.Label), nodes: 1, bytes: ownBytes(t.Label)}
		for i, c := range t.Children {
			kid := rec(c, n)
			kid.idx = i
			n.kids = append(n.kids, kid)
			n.nodes += kid.nodes
			n.bytes += kid.bytes
		}
		n.wits = append([]int32(nil), inc.computeWits(n)...)
		return n
	}
	inc.root = rec(k.Tree(), nil)
	inc.valid = inc.rootValid()
	inc.lastReval, inc.lastSkipped = 0, 0
	return inc, nil
}

// build constructs the shadow of t bottom-up, computing witness sets as
// it goes and charging every built node to the edit's recheck cost.
func (inc *Incremental) build(t *xmltree.Tree, parent *incNode) *incNode {
	n := &incNode{parent: parent, label: t.Label, sym: inc.m.resolve(t.Label), nodes: 1, bytes: ownBytes(t.Label)}
	for i, c := range t.Children {
		kid := inc.build(c, n)
		kid.idx = i
		n.kids = append(n.kids, kid)
		n.nodes += kid.nodes
		n.bytes += kid.bytes
	}
	n.wits = append([]int32(nil), inc.computeWits(n)...)
	inc.lastReval += ownBytes(t.Label)
	return n
}

// computeWits returns the witness set of n from its children's cached
// summaries, in inc.witScratch (valid until the next call). Slots are
// expanded transparently: their children participate in n's content
// word in place.
func (inc *Incremental) computeWits(n *incNode) []int32 {
	out := inc.witScratch[:0]
	if n.sym != NoSym {
		if inc.m.singleType {
			out = inc.witsSingle(out, n)
		} else {
			out = inc.witsGeneral(out, n)
		}
	}
	inc.witScratch = out
	return out
}

// eachContentChild visits n's content word: element children as
// themselves, slot children expanded to their forests.
func eachContentChild(n *incNode, f func(c *incNode) bool) bool {
	for _, c := range n.kids {
		if c.slot {
			for _, g := range c.kids {
				if !f(g) {
					return false
				}
			}
			continue
		}
		if !f(c) {
			return false
		}
	}
	return true
}

// witsSingle runs each candidate's content DFA over the child
// summaries. Single-type schemas force each child's specialization
// inside a given content model, so a candidate survives iff every
// forced child witness is admissible for that child's subtree and the
// forced word is accepted.
func (inc *Incremental) witsSingle(out []int32, n *incNode) []int32 {
	m := inc.m
	for _, w := range m.specsByLabel[n.sym] {
		prog := &m.progs[w]
		state := prog.start
		ok := eachContentChild(n, func(c *incNode) bool {
			if c.sym == NoSym || prog.child[c.sym] < 0 || !containsInt32(c.wits, prog.child[c.sym]) {
				return false
			}
			state = m.step(prog, state, c.sym)
			return state >= 0
		})
		if ok && prog.final[state] {
			out = append(out, w)
		}
	}
	return out
}

// witsGeneral runs each candidate's content NFA over the *sets* of
// names admissible for each child — the bottom-up membership
// computation, one node at a time.
func (inc *Incremental) witsGeneral(out []int32, n *incNode) []int32 {
	m := inc.m
	if inc.tmp == nil {
		inc.tmp, inc.setA, inc.setB = strlang.NewIntSet(), strlang.NewIntSet(), strlang.NewIntSet()
	}
	for _, w := range m.specsByLabel[n.sym] {
		g := &m.gen[w]
		cur := g.startClos // shared, read-only
		own := inc.setA
		spare := inc.setB
		alive := true
		eachContentChild(n, func(c *incNode) bool {
			inc.tmp.Clear()
			for _, cw := range c.wits {
				g.nfa.StepIDInto(inc.tmp, cur, m.gen[cw].sym)
			}
			if inc.tmp.Len() == 0 {
				alive = false
				return false
			}
			own.SetTo(inc.tmp)
			cur = own
			own, spare = spare, own
			return true
		})
		if alive && cur.Intersects(g.finals) {
			out = append(out, w)
		}
	}
	return out
}

func containsInt32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rootValid reports whether the root's witness set meets the starts.
func (inc *Incremental) rootValid() bool {
	for _, s := range inc.m.starts {
		if containsInt32(inc.root.wits, s) {
			return true
		}
	}
	return false
}

// Valid returns the maintained verdict: exactly what a from-scratch
// validation of the current document (or extension) would report.
func (inc *Incremental) Valid() bool { return inc.valid }

// LastRecheck returns the byte accounting of the most recent edit:
// how much of the document was revalidated (rebuilt subtree plus the
// ancestor re-checks) and how much was skipped (everything else).
func (inc *Incremental) LastRecheck() (revalidated, skipped int) {
	return inc.lastReval, inc.lastSkipped
}

// TotalBytes is the document's total flat byte measure.
func (inc *Incremental) TotalBytes() int { return inc.root.bytes }

// NodeCount is the current number of document nodes.
func (inc *Incremental) NodeCount() int { return inc.root.nodes }

// base resolves the edit surface: the slot for a docking point, the
// root for the plain-document mode (fn == "").
func (inc *Incremental) base(fn string) (*incNode, error) {
	if fn == "" {
		if len(inc.slots) != 0 {
			return nil, fmt.Errorf("stream: kernel incremental needs a docking point for every edit")
		}
		return inc.root, nil
	}
	slot, ok := inc.slots[fn]
	if !ok {
		return nil, fmt.Errorf("stream: no docking point %s", fn)
	}
	return slot, nil
}

// nodeAt walks an index path below base.
func nodeAt(base *incNode, path []int) (*incNode, error) {
	n := base
	for depth, i := range path {
		if i < 0 || i >= len(n.kids) {
			return nil, fmt.Errorf("stream: path %v: index %d out of range at depth %d", path, i, depth)
		}
		n = n.kids[i]
	}
	return n, nil
}

// beginEdit resets the per-edit accounting.
func (inc *Incremental) beginEdit() { inc.lastReval, inc.lastSkipped = 0, 0 }

// finishEdit settles the skipped-byte accounting and the verdict.
func (inc *Incremental) finishEdit() {
	inc.valid = inc.rootValid()
	if inc.lastSkipped = inc.root.bytes - inc.lastReval; inc.lastSkipped < 0 {
		inc.lastSkipped = 0
	}
}

// refreshUp propagates a structural change at n (whose children just
// changed) to the root: aggregates are adjusted all the way up, witness
// sets are recomputed until one comes out unchanged. Slots are
// transparent (no witness set of their own). witsLive=false skips the
// automaton re-checks entirely — the caller proved n's content word
// unchanged (a replace whose fresh subtree has the old label and
// witness set), so only aggregates move.
func (inc *Incremental) refreshUp(n *incNode, dNodes, dBytes int, witsLive bool) {
	for cur := n; cur != nil; cur = cur.parent {
		cur.nodes += dNodes
		cur.bytes += dBytes
		if cur.slot || !witsLive {
			continue
		}
		// Charge the re-check: this node's own tag plus the child
		// summaries its automaton re-reads.
		inc.lastReval += ownBytes(cur.label)
		eachContentChild(cur, func(c *incNode) bool {
			inc.lastReval += ownBytes(c.label)
			return true
		})
		fresh := inc.computeWits(cur)
		if int32sEqual(fresh, cur.wits) {
			witsLive = false
			continue
		}
		cur.wits = append(cur.wits[:0], fresh...)
	}
}

// reindex refreshes kids' idx fields from position i on.
func reindex(n *incNode, i int) {
	for ; i < len(n.kids); i++ {
		n.kids[i].idx = i
	}
}

// Replace replaces the subtree at path below fn's surface with t. An
// empty path replaces the whole fragment (kernel mode: t's children
// become the slot's forest, mirroring extension semantics) or the whole
// document (plain mode).
func (inc *Incremental) Replace(fn string, path []int, t *xmltree.Tree) error {
	base, err := inc.base(fn)
	if err != nil {
		return err
	}
	inc.beginEdit()
	if len(path) == 0 {
		if base.slot {
			oldNodes, oldBytes := base.nodes, base.bytes
			base.label = t.Label
			base.kids = base.kids[:0]
			base.nodes, base.bytes = 0, 0
			for i, c := range t.Children {
				kid := inc.build(c, base)
				kid.idx = i
				base.kids = append(base.kids, kid)
				base.nodes += kid.nodes
				base.bytes += kid.bytes
			}
			// The slot's own aggregates were just rebuilt; the delta
			// applies from its kernel parent up (a slot is never the
			// root — kernel roots are element nodes).
			inc.refreshUp(base.parent, base.nodes-oldNodes, base.bytes-oldBytes, true)
		} else {
			inc.root = inc.build(t, nil)
		}
		inc.finishEdit()
		return nil
	}
	v, err := nodeAt(base, path)
	if err != nil {
		return err
	}
	parent := v.parent
	fresh := inc.build(t, parent)
	fresh.idx = v.idx
	parent.kids[v.idx] = fresh
	// If the replacement contributes the same symbol and witness set as
	// the node it replaced, no ancestor's content word changed: the
	// chain is pure aggregate arithmetic.
	same := fresh.sym == v.sym && int32sEqual(fresh.wits, v.wits)
	inc.refreshUp(parent, fresh.nodes-v.nodes, fresh.bytes-v.bytes, !same)
	inc.finishEdit()
	return nil
}

// Insert inserts t below fn's surface: path names the new node — its
// parent's path plus the insertion index (0..len(children)).
func (inc *Incremental) Insert(fn string, path []int, t *xmltree.Tree) error {
	if len(path) == 0 {
		return fmt.Errorf("stream: insert path must name the new node")
	}
	base, err := inc.base(fn)
	if err != nil {
		return err
	}
	parent, err := nodeAt(base, path[:len(path)-1])
	if err != nil {
		return err
	}
	i := path[len(path)-1]
	if i < 0 || i > len(parent.kids) {
		return fmt.Errorf("stream: insert index %d out of range (parent has %d children)", i, len(parent.kids))
	}
	inc.beginEdit()
	fresh := inc.build(t, parent)
	parent.kids = append(parent.kids, nil)
	copy(parent.kids[i+1:], parent.kids[i:])
	parent.kids[i] = fresh
	reindex(parent, i)
	inc.refreshUp(parent, fresh.nodes, fresh.bytes, true)
	inc.finishEdit()
	return nil
}

// Delete removes the subtree at path below fn's surface.
func (inc *Incremental) Delete(fn string, path []int) error {
	if len(path) == 0 {
		return fmt.Errorf("stream: cannot delete the edit surface itself")
	}
	base, err := inc.base(fn)
	if err != nil {
		return err
	}
	v, err := nodeAt(base, path)
	if err != nil {
		return err
	}
	inc.beginEdit()
	parent := v.parent
	parent.kids = append(parent.kids[:v.idx], parent.kids[v.idx+1:]...)
	reindex(parent, v.idx)
	inc.refreshUp(parent, -v.nodes, -v.bytes, true)
	inc.finishEdit()
	return nil
}

// Tree materializes the current document — in kernel mode, the
// extension with every slot's forest spliced in place.
func (inc *Incremental) Tree() *xmltree.Tree {
	var rec func(n *incNode) []*xmltree.Tree
	rec = func(n *incNode) []*xmltree.Tree {
		if n.slot {
			var forest []*xmltree.Tree
			for _, c := range n.kids {
				forest = append(forest, rec(c)...)
			}
			return forest
		}
		t := &xmltree.Tree{Label: n.label}
		for _, c := range n.kids {
			t.Children = append(t.Children, rec(c)...)
		}
		return []*xmltree.Tree{t}
	}
	return rec(inc.root)[0]
}

// Fragment materializes one docking point's fragment document (the
// slot's forest under its remembered root label).
func (inc *Incremental) Fragment(fn string) (*xmltree.Tree, error) {
	slot, ok := inc.slots[fn]
	if !ok {
		return nil, fmt.Errorf("stream: no docking point %s", fn)
	}
	t := &xmltree.Tree{Label: slot.label}
	for _, c := range slot.kids {
		var rec func(n *incNode) *xmltree.Tree
		rec = func(n *incNode) *xmltree.Tree {
			out := &xmltree.Tree{Label: n.label}
			for _, k := range n.kids {
				out.Children = append(out.Children, rec(k))
			}
			return out
		}
		t.Children = append(t.Children, rec(c))
	}
	return t, nil
}
