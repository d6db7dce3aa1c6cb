package stream

import (
	"fmt"
	"strings"

	"dxml/internal/strlang"
)

// stFrame is one open element on the single-type fast path: its forced
// witness and the running state of its content DFA.
type stFrame struct {
	name  int32 // machine-local index of the witness
	sym   Sym   // element label (for error paths)
	state int32 // current content-DFA state
}

// genFrame is one open element of the general-EDTD subset tracker: per
// candidate specialization, the NFA state set of its content run over the
// children consumed so far. runs[i] == nil marks a dead candidate.
//
// A run set is either the machine's shared (read-only) start closure —
// before the element's first child closes — or the frame-owned scratch
// set of its slot. The scratch sets form a per-frame arena: they are
// cleared and refilled in place as children close and survive frame
// reuse, so the slow path performs no per-child heap allocation once the
// runner has warmed to the document's depth and candidate width.
type genFrame struct {
	sym     Sym
	cands   []int32
	runs    []strlang.IntSet
	scratch []strlang.IntSet
}

// Runner consumes one document's events and accumulates a verdict. The
// zero value is not usable; obtain Runners from Machine.NewRunner and
// return them with Release. A Runner is not safe for concurrent use; the
// point of pooling is that many goroutines each hold their own Runner
// over one shared Machine.
type Runner struct {
	m    *Machine
	err  error
	done bool // the root element has closed

	st   []stFrame
	gst  []genFrame
	surv []int32        // scratch: surviving child names at EndElement
	tmp  strlang.IntSet // scratch: stepped state set under construction
}

func (r *Runner) reset() {
	r.err = nil
	r.done = false
	r.st = r.st[:0]
	r.gst = r.gst[:0]
}

// Release resets the runner and returns it to its machine's pool.
func (r *Runner) Release() {
	r.reset()
	r.m.pool.Put(r)
}

// Depth returns the number of currently open elements.
func (r *Runner) Depth() int {
	if r.m.singleType {
		return len(r.st)
	}
	return len(r.gst)
}

// path renders the open-element path for error messages, ending with
// extra (when non-empty).
func (r *Runner) path(extra string) string {
	var b strings.Builder
	write := func(sym Sym) {
		b.WriteByte('/')
		b.WriteString(r.m.labels[sym])
	}
	if r.m.singleType {
		for _, f := range r.st {
			write(f.sym)
		}
	} else {
		for _, f := range r.gst {
			write(f.sym)
		}
	}
	if extra != "" {
		b.WriteByte('/')
		b.WriteString(extra)
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

// fail records the first validation error; it stays sticky so sources can
// stop on it and Finish reports it.
func (r *Runner) fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("stream: "+format, args...)
	}
	return r.err
}

// Err returns the sticky validation error, if any.
func (r *Runner) Err() error { return r.err }

// Resolve returns the machine-local symbol of label, NoSym if the
// machine does not know it. Any number of runners of one machine may
// resolve concurrently: the tables are read-only.
func (r *Runner) Resolve(label string) Sym { return r.m.resolve(label) }

// StartElement consumes an element-open event. sym must be
// r.Resolve(label); a symbol outside the machine's tables counts as an
// unknown label.
func (r *Runner) StartElement(label string, sym Sym) error {
	if r.err != nil {
		return r.err
	}
	if r.done {
		return r.fail("unexpected second root <%s>", label)
	}
	if !r.m.known(sym) {
		sym = NoSym
	}
	if r.m.singleType {
		return r.startSingle(label, sym)
	}
	return r.startGeneral(label, sym)
}

func (r *Runner) startSingle(label string, sym Sym) error {
	if len(r.st) == 0 {
		if sym == NoSym || len(r.m.startsByLabel[sym]) == 0 {
			return r.fail("root <%s> matches no start", label)
		}
		name := r.m.startsByLabel[sym][0] // single-type: the only one
		r.st = append(r.st, stFrame{name: name, sym: sym, state: r.m.progs[name].start})
		return nil
	}
	top := &r.st[len(r.st)-1]
	prog := &r.m.progs[top.name]
	if sym == NoSym || prog.child[sym] < 0 {
		return r.fail("at %s: child <%s> not allowed under witness %s",
			r.path(""), label, r.m.names[top.name])
	}
	next := r.m.step(prog, top.state, sym)
	if next < 0 {
		return r.fail("at %s: child <%s> violates π(%s)",
			r.path(""), label, r.m.names[top.name])
	}
	top.state = next
	child := prog.child[sym]
	r.st = append(r.st, stFrame{name: child, sym: sym, state: r.m.progs[child].start})
	return nil
}

// leave is endSingle's success path below the root, for the Feeder to
// run in place: it closes the innermost open element, reporting true, or
// changes nothing and reports false where EndElement would fail or must
// close the root. The Feeder calls it only on a single-type runner with
// no sticky error.
func (r *Runner) leave() bool {
	n := len(r.st)
	if n < 2 {
		return false
	}
	f := &r.st[n-1]
	if !r.m.progs[f.name].final[f.state] {
		return false
	}
	r.st = r.st[:n-1]
	return true
}

func (r *Runner) startGeneral(label string, sym Sym) error {
	var cands []int32
	if len(r.gst) == 0 {
		if sym != NoSym {
			cands = r.m.startsByLabel[sym]
		}
		if len(cands) == 0 {
			return r.fail("root <%s> matches no start", label)
		}
	} else {
		if sym != NoSym {
			cands = r.m.specsByLabel[sym]
		}
		if len(cands) == 0 {
			return r.fail("at %s: element <%s> has no specialization", r.path(""), label)
		}
	}
	// Reuse the popped frame's slices when the stack has spare capacity.
	if len(r.gst) < cap(r.gst) {
		r.gst = r.gst[:len(r.gst)+1]
	} else {
		r.gst = append(r.gst, genFrame{})
	}
	f := &r.gst[len(r.gst)-1]
	f.sym = sym
	f.cands = append(f.cands[:0], cands...)
	f.runs = f.runs[:0]
	for _, n := range cands {
		f.runs = append(f.runs, r.m.gen[n].startClos)
	}
	return nil
}

// Text consumes character data. The structural abstraction of the paper
// drops it, so it only checks well-formedness of the event order.
func (r *Runner) Text() error { return r.err }

// EndElement consumes an element-close event.
func (r *Runner) EndElement() error {
	if r.err != nil {
		return r.err
	}
	if r.m.singleType {
		return r.endSingle()
	}
	return r.endGeneral()
}

func (r *Runner) endSingle() error {
	if len(r.st) == 0 {
		return r.fail("unbalanced end element")
	}
	f := r.st[len(r.st)-1]
	r.st = r.st[:len(r.st)-1]
	if !r.m.progs[f.name].final[f.state] {
		label := r.m.labels[f.sym]
		return r.fail("at %s: children of <%s> form no word of π(%s)",
			r.path(label), label, r.m.names[f.name])
	}
	if len(r.st) == 0 {
		r.done = true
	}
	return nil
}

func (r *Runner) endGeneral() error {
	if len(r.gst) == 0 {
		return r.fail("unbalanced end element")
	}
	f := &r.gst[len(r.gst)-1]
	// Which candidate specializations survive their content run?
	r.surv = r.surv[:0]
	for i, n := range f.cands {
		if f.runs[i] != nil && f.runs[i].Intersects(r.m.gen[n].finals) {
			r.surv = append(r.surv, n)
		}
	}
	label := r.m.labels[f.sym]
	r.gst = r.gst[:len(r.gst)-1]
	if len(r.surv) == 0 {
		return r.fail("at %s: subtree of <%s> admits no witness",
			r.path(label), label)
	}
	if len(r.gst) == 0 {
		r.done = true
		return nil
	}
	// Step every live parent candidate by the set of surviving names.
	// The stepped set is built in the runner's scratch set and then
	// copied into the frame-owned slot, so no step allocates once the
	// arena has warmed up (ROADMAP's allocation-free slow path).
	parent := &r.gst[len(r.gst)-1]
	alive := false
	if r.tmp == nil {
		r.tmp = strlang.NewIntSet()
	}
	for j, pn := range parent.cands {
		if parent.runs[j] == nil {
			continue
		}
		r.tmp.Clear()
		for _, cn := range r.surv {
			r.m.gen[pn].nfa.StepIDInto(r.tmp, parent.runs[j], r.m.gen[cn].sym)
		}
		if r.tmp.Len() == 0 {
			parent.runs[j] = nil // dead candidate
			continue
		}
		for len(parent.scratch) <= j {
			parent.scratch = append(parent.scratch, strlang.NewIntSet())
		}
		parent.scratch[j].SetTo(r.tmp)
		parent.runs[j] = parent.scratch[j]
		alive = true
	}
	if !alive {
		return r.fail("at %s: child <%s> kills every candidate witness",
			r.path(""), label)
	}
	return nil
}

// Finish reports the final verdict: nil iff exactly one root element was
// seen, every element closed, and the document is in the machine's
// language.
func (r *Runner) Finish() error {
	if r.err != nil {
		return r.err
	}
	if !r.done {
		// Not sticky: the document may legitimately continue after an
		// intermediate Finish probe.
		if r.Depth() > 0 {
			return fmt.Errorf("stream: unterminated elements at %s", r.path(""))
		}
		return fmt.Errorf("stream: empty document")
	}
	return nil
}
