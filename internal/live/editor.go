package live

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dxml/internal/xmltree"
)

// ErrCompacted reports that the edit log no longer reaches back to the
// requested version: Compact dropped the prefix. A subscriber that
// trips it must fall back to a fresh snapshot cut.
var ErrCompacted = errors.New("live: edit log compacted past the requested version")

// Editor is the peer-side publisher of a fragment's edit log: it owns
// the live Doc, applies edits locally, appends them to the log, and
// wakes any number of subscribers (transport feeds) blocked in
// NextEdit. All methods are safe for concurrent use.
//
// The kernel peer's global verdict flows back through NoteVerdict
// (the wire's verdict-update frames), so the editing site always knows
// whether the federation currently accepts its fragment.
type Editor struct {
	mu      sync.Mutex
	doc     *Doc
	log     []Edit
	first   uint64 // versions <= first are compacted away; log[i].Version == first+i+1
	changed chan struct{}

	verdictKnown   bool
	verdictVersion uint64
	verdictValid   bool
	verdictSignal  chan struct{} // closed+re-armed on every NoteVerdict
}

// NewEditor builds an editor over a fresh version-0 document for t.
func NewEditor(t *xmltree.Tree) *Editor {
	return &Editor{doc: NewDoc(t), changed: make(chan struct{}), verdictSignal: make(chan struct{})}
}

// Version returns the current document version (== published edits).
func (ed *Editor) Version() uint64 {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.doc.version
}

// Tree returns a snapshot of the current document.
func (ed *Editor) Tree() *xmltree.Tree {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.doc.Tree()
}

// VersionedTree returns a snapshot of the current document and its
// version, atomically: the tree is exactly that version's document.
func (ed *Editor) VersionedTree() (*xmltree.Tree, uint64) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.doc.Tree(), ed.doc.version
}

// EncodeSnapshot returns the keyed snapshot of the current document
// and its version, atomically — the cut a live subscription starts
// from: every edit with a greater version applies cleanly on top.
func (ed *Editor) EncodeSnapshot() ([]byte, uint64) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return AppendSnapshot(nil, ed.doc), ed.doc.version
}

// publish applies an edit built by fn against the current version and
// appends it to the log. fn runs under the lock.
func (ed *Editor) publish(build func(d *Doc) (Edit, error)) (Edit, error) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.publishLocked(build)
}

func (ed *Editor) publishLocked(build func(d *Doc) (Edit, error)) (Edit, error) {
	e, err := build(ed.doc)
	if err != nil {
		return Edit{}, err
	}
	if _, err := ed.doc.Apply(e); err != nil {
		return Edit{}, err
	}
	ed.log = append(ed.log, e)
	close(ed.changed)
	ed.changed = make(chan struct{})
	return e, nil
}

// ReplaceSubtree publishes a replace of the subtree at the given index
// path (empty path: the whole fragment) with a copy of t.
func (ed *Editor) ReplaceSubtree(path []int, t *xmltree.Tree) (Edit, error) {
	return ed.publish(func(d *Doc) (Edit, error) {
		addr, err := d.AddrOf(path)
		if err != nil {
			return Edit{}, err
		}
		return Edit{Version: d.version + 1, Op: OpReplace, Addr: addr, Doc: t.Clone()}, nil
	})
}

// InsertChild publishes an insert of a copy of t as the i-th child of
// the node at parentPath (i may equal the current child count: append).
// If the neighboring sibling keys leave no gap, it falls back to
// replacing the parent subtree with the child spliced in — a
// deterministic re-key that keeps replicas convergent.
func (ed *Editor) InsertChild(parentPath []int, i int, t *xmltree.Tree) (Edit, error) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.insertAtLocked(parentPath, i, t)
}

// DeleteSubtree publishes a delete of the subtree at the given path.
func (ed *Editor) DeleteSubtree(path []int) (Edit, error) {
	return ed.publish(func(d *Doc) (Edit, error) {
		if len(path) == 0 {
			return Edit{}, fmt.Errorf("live: cannot delete the fragment root")
		}
		addr, err := d.AddrOf(path)
		if err != nil {
			return Edit{}, err
		}
		return Edit{Version: d.version + 1, Op: OpDelete, Addr: addr}, nil
	})
}

// Log returns a copy of the still-retained edit log (everything after
// the compaction horizon).
func (ed *Editor) Log() []Edit {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return append([]Edit(nil), ed.log...)
}

// Compacted returns the compaction horizon: every edit with a version
// at or below it has been dropped from the log.
func (ed *Editor) Compacted() uint64 {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.first
}

// Compact drops every log entry with a version at or below `below`,
// bounding the log's memory. Subscribers that later ask to resume from
// a compacted version get ErrCompacted and must re-pull a snapshot;
// CutSince makes that fallback atomic.
func (ed *Editor) Compact(below uint64) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	if below > ed.doc.version {
		below = ed.doc.version
	}
	if below <= ed.first {
		return
	}
	n := below - ed.first // log entries to drop
	ed.log = append(ed.log[:0:0], ed.log[n:]...)
	ed.first = below
}

// NextEdit blocks until the edit with version after+1 is published and
// returns it (versions are dense, so after-first is its log position).
// If compaction has dropped that edit it returns ErrCompacted — the
// subscriber's cue to fall back to a snapshot.
func (ed *Editor) NextEdit(ctx context.Context, after uint64) (Edit, error) {
	for {
		ed.mu.Lock()
		if after < ed.first {
			ed.mu.Unlock()
			return Edit{}, fmt.Errorf("%w (want edits after %d, log starts after %d)", ErrCompacted, after, ed.first)
		}
		if idx := after - ed.first; idx < uint64(len(ed.log)) {
			e := ed.log[idx]
			ed.mu.Unlock()
			return e, nil
		}
		ch := ed.changed
		ed.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return Edit{}, ctx.Err()
		}
	}
}

// CutSince is the resume decision, taken atomically: if the log still
// covers every edit after `after`, it returns (nil, after, true) — the
// subscriber needs no snapshot, just the suffix replay from NextEdit.
// Otherwise (the log was compacted past it, or `after` is bogus and
// ahead of the document) it returns a fresh full snapshot cut exactly
// like EncodeSnapshot, and resumed=false.
func (ed *Editor) CutSince(after uint64) (snapshot []byte, version uint64, resumed bool) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	if after >= ed.first && after <= ed.doc.version {
		return nil, after, true
	}
	return AppendSnapshot(nil, ed.doc), ed.doc.version, false
}

// NoteVerdict records the kernel peer's global verdict after it
// applied the edit with the given version (a verdict-update frame).
func (ed *Editor) NoteVerdict(version uint64, valid bool) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	if ed.verdictKnown && version < ed.verdictVersion {
		return // stale update from a slower subscriber
	}
	ed.verdictKnown, ed.verdictVersion, ed.verdictValid = true, version, valid
	close(ed.verdictSignal)
	ed.verdictSignal = make(chan struct{})
}

// AwaitVerdict blocks until a kernel peer has reported a global verdict
// covering at least the given edit version, and returns it. It is the
// condition-wait replacement for polling KernelVerdict in a loop.
func (ed *Editor) AwaitVerdict(ctx context.Context, version uint64) (bool, error) {
	for {
		ed.mu.Lock()
		if ed.verdictKnown && ed.verdictVersion >= version {
			v := ed.verdictValid
			ed.mu.Unlock()
			return v, nil
		}
		ch := ed.verdictSignal
		ed.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// KernelVerdict returns the most recent global verdict reported by a
// kernel peer, and the edit version it covers.
func (ed *Editor) KernelVerdict() (version uint64, valid, known bool) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	return ed.verdictVersion, ed.verdictValid, ed.verdictKnown
}

// SetTree diffs the current document against target and publishes the
// edit sequence transforming one into the other — subtree replaces at
// the deepest differing nodes, child inserts and deletes at matching
// ones. This is how `dxml serve -watch` re-serves a changed document
// file as deltas. It returns the published edits (none when the trees
// already agree).
func (ed *Editor) SetTree(target *xmltree.Tree) ([]Edit, error) {
	ed.mu.Lock()
	defer ed.mu.Unlock()
	start := len(ed.log)
	if err := ed.syncNode(nil, ed.doc.root, target); err != nil {
		return nil, err
	}
	return append([]Edit(nil), ed.log[start:]...), nil
}

// syncNode recursively edits the subtree at path (currently cur) into
// want. Called under the lock.
func (ed *Editor) syncNode(path []int, cur *node, want *xmltree.Tree) error {
	if cur.label != want.Label {
		_, err := ed.publishLocked(func(d *Doc) (Edit, error) {
			addr, err := d.AddrOf(path)
			if err != nil {
				return Edit{}, err
			}
			return Edit{Version: d.version + 1, Op: OpReplace, Addr: addr, Doc: want.Clone()}, nil
		})
		return err
	}
	a, b := cur.kids, want.Children
	// Trim the common prefix and suffix of already-equal children.
	pre := 0
	for pre < len(a) && pre < len(b) && nodeEqualsTree(a[pre], b[pre]) {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && nodeEqualsTree(a[len(a)-1-suf], b[len(b)-1-suf]) {
		suf++
	}
	ma, mb := len(a)-pre-suf, len(b)-pre-suf
	// Recurse into positionally paired middle children.
	for k := 0; k < ma && k < mb; k++ {
		if err := ed.syncNode(append(path, pre+k), a[pre+k], b[pre+k]); err != nil {
			return err
		}
	}
	// Delete surplus children (from the end, so indices stay stable),
	// then insert missing ones.
	for k := ma - 1; k >= mb; k-- {
		if _, err := ed.deleteAtLocked(append(path, pre+k)); err != nil {
			return err
		}
	}
	for k := ma; k < mb; k++ {
		if _, err := ed.insertAtLocked(path, pre+k, b[pre+k]); err != nil {
			return err
		}
	}
	return nil
}

func (ed *Editor) deleteAtLocked(path []int) (Edit, error) {
	return ed.publishLocked(func(d *Doc) (Edit, error) {
		addr, err := d.AddrOf(path)
		if err != nil {
			return Edit{}, err
		}
		return Edit{Version: d.version + 1, Op: OpDelete, Addr: addr}, nil
	})
}

// insertAtLocked publishes the insert of a copy of t at position i
// under parentPath, falling back to a parent re-key (a replace with the
// child spliced in) when the sibling key gap is exhausted. Called under
// the lock.
func (ed *Editor) insertAtLocked(parentPath []int, i int, t *xmltree.Tree) (Edit, error) {
	e, err := ed.publishLocked(func(d *Doc) (Edit, error) {
		addr, err := d.AddrOf(parentPath)
		if err != nil {
			return Edit{}, err
		}
		parent, _, _, err := d.resolve(addr)
		if err != nil {
			return Edit{}, err
		}
		if i < 0 || i > len(parent.kids) {
			return Edit{}, fmt.Errorf("live: insert index %d out of range (parent has %d children)", i, len(parent.kids))
		}
		key, err := insertKey(parent, i)
		if err != nil {
			return Edit{}, err
		}
		return Edit{Version: d.version + 1, Op: OpInsert, Addr: append(addr, key), Doc: t.Clone()}, nil
	})
	if err == ErrNoGap {
		// Exhausted gap: re-key the parent by replacing its subtree
		// with the child inserted at position i.
		return ed.publishLocked(func(d *Doc) (Edit, error) {
			addr, err := d.AddrOf(parentPath)
			if err != nil {
				return Edit{}, err
			}
			parent, _, _, err := d.resolve(addr)
			if err != nil {
				return Edit{}, err
			}
			nt := materialize(parent)
			nt.Children = append(nt.Children, nil)
			copy(nt.Children[i+1:], nt.Children[i:])
			nt.Children[i] = t.Clone()
			return Edit{Version: d.version + 1, Op: OpReplace, Addr: addr, Doc: nt}, nil
		})
	}
	return e, err
}

// nodeEqualsTree reports deep equality of a live node and a tree.
func nodeEqualsTree(n *node, t *xmltree.Tree) bool {
	if n.label != t.Label || len(n.kids) != len(t.Children) {
		return false
	}
	for i, k := range n.kids {
		if !nodeEqualsTree(k, t.Children[i]) {
			return false
		}
	}
	return true
}
