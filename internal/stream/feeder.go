package stream

import (
	"bytes"
	"fmt"
)

// feedState is the tokenizer position of a Feeder. A Feeder must be
// resumable at *any* byte boundary — network chunks do not align with
// markup — so every multi-byte construct ("-->", "]]>", "?>", tag names,
// the "<![CDATA[" discriminator) carries its progress in the Feeder
// rather than on the stack.
type feedState uint8

const (
	fsText          feedState = iota // between markup
	fsLT                             // '<' seen, kind undecided
	fsStartName                      // inside a start-tag name
	fsStartTag                       // inside a start tag, past the name
	fsStartTagQuote                  // inside a quoted attribute value
	fsStartTagSlash                  // '/' seen, expecting '>' (self-closing)
	fsEndName                        // inside an end-tag name
	fsEndTag                         // past an end-tag name, expecting '>'
	fsBang                           // "<!" seen: comment, CDATA or declaration
	fsComment                        // inside <!-- ... -->
	fsCDATA                          // inside <![CDATA[ ... ]]>
	fsDecl                           // inside a declaration <!DOCTYPE ... >
	fsDeclComment                    // inside <!-- ... --> within a declaration
	fsPI                             // inside <? ... ?>
)

// Feeder is the push-parser front-end of the streaming engine: it accepts
// the bytes of one XML document in arbitrary chunks, as they arrive from
// a network or pipe, and forwards the structural events to a Handler.
// Unlike the io.Reader front-ends it never blocks waiting for input — the
// caller is in control of when bytes exist — which is what lets the p2p
// wire deliver fragments frame by frame and reject them mid-transfer.
//
// One in-chunk loop runs through the text and the tags of each chunk: a
// start tag <name> or <name/>, and the end tag of the innermost open
// element, that lie wholly inside the chunk are scanned in place, tag
// after tag. A resumable byte machine takes over only for markup cut by a
// chunk boundary, and for attributes, whitespace inside tags, comments,
// CDATA, processing instructions and declarations. Both paths emit the
// same events and errors, so the event stream does not depend on how the
// document is split into chunks.
//
// When the handler is a Runner of a single-type Machine (Machine.NewFeeder,
// StreamXML and NewInnerFeeder over such a runner), the Feeder validates
// in place: a start tag that the runner accepts below the root steps the
// parent's content DFA and pushes the child's frame, and an end tag whose
// element is complete pops it, with no call through the Handler
// interface; text is skipped, since Runner.Text discards it. Every other
// event — the root, and any event the runner rejects — goes to the
// runner's StartElement or EndElement, so each verdict and error text is
// the one the Handler path gives.
//
// Memory is O(chunk + depth): the tokenizer holds one partial tag name
// (plus the open-element stack for end-tag matching); chunks are never
// retained across Feed calls. Each distinct start-tag spelling is
// resolved through the handler once per Feeder and cached; an end tag is
// matched against the open-element stack by comparing bytes, with no
// name lookup at all. Character data, attributes, comments, CDATA
// sections, processing instructions and declarations are scanned and
// dropped, matching the paper's structural abstraction and the
// encoding/xml front-end's event stream on everything structural:
// element labels (Name.Local: a name splits at its colon only when it
// has exactly one, with both sides non-empty), end-tag matching (raw
// names, prefix included), where a declaration ends, root-count and
// balance errors. Lexical strictness is the one deliberate divergence —
// attribute syntax and comment/name minutiae are tolerated rather than
// validated, since the validator's verdict never depends on them.
//
// Feed returns a non-nil error as soon as the prefix consumed so far is
// malformed or the handler rejects an event; the error is sticky. Close
// finalizes the verdict (truncation, unterminated elements, empty input)
// and, for feeders bound to a Machine, the validation verdict itself.
type Feeder struct {
	h    Handler
	run  *Runner // h, when it is a single-type Runner: validated in place
	skip int     // nesting levels whose events are suppressed (1 = fragment root)

	err      error
	closed   bool
	closeErr error
	onClose  func(error) error

	state       feedState
	pendingText bool                  // a text run continues past a chunk boundary
	name        []byte                // partial tag name / "<!" discriminator
	mark        int                   // terminator progress in comment/CDATA/PI/declaration states
	nest        int                   // '<' nesting depth inside a declaration
	quote       byte                  // active attribute-value or declaration quote
	depth       int                   // open elements
	roots       int                   // top-level elements seen
	stack       []string              // open elements' nameEntry.tag, for end-tag matching
	labels      map[string]nameEntry  // every start-tag spelling seen, by raw name
	recent      [labelSlots]nameEntry // direct-mapped cache in front of labels
}

// NewFeeder returns a Feeder that pushes one document's events into h.
func NewFeeder(h Handler) *Feeder {
	return newFeeder(h, 0)
}

// NewInnerFeeder returns a Feeder that pushes the events *inside* the
// document's root element — the forest a docking point contributes under
// extension semantics (Section 2.3) — suppressing the root's own start
// and end events. This is how the kernel peer splices a fragment arriving
// chunk by chunk into its own validation run.
func NewInnerFeeder(h Handler) *Feeder {
	return newFeeder(h, 1)
}

// newFeeder binds a Feeder to h, validating in place when h is a
// single-type Runner. A runner that has already failed takes the Handler
// path, which reports its error at the first event.
func newFeeder(h Handler, skip int) *Feeder {
	f := &Feeder{h: h, skip: skip}
	if r, ok := h.(*Runner); ok && r.m.singleType && r.err == nil {
		f.run = r
	}
	return f
}

// NewFeeder returns a push-validation session: feed one document's bytes
// in arbitrary chunks, then Close for the verdict. The underlying Runner
// is pooled and released by Close.
func (m *Machine) NewFeeder() *Feeder {
	r := m.NewRunner()
	f := NewFeeder(r)
	f.onClose = func(err error) error {
		defer r.Release()
		if err != nil {
			return err
		}
		return r.Finish()
	}
	return f
}

// fatal records a sticky tokenizer error.
func (f *Feeder) fatal(format string, args ...any) error {
	if f.err == nil {
		f.err = fmt.Errorf("stream: "+format, args...)
	}
	return f.err
}

// Err returns the sticky error, if any.
func (f *Feeder) Err() error { return f.err }

// Depth returns the number of currently open elements.
func (f *Feeder) Depth() int { return f.depth }

// nameEntry is the cached form of one start-tag name: tag is the raw
// spelling followed by '>', the bytes an end tag must repeat (prefix
// included, exactly as encoding/xml matches full names); local is where
// the label forwarded to the handler starts in it (past a namespace
// prefix: encoding/xml's Name.Local); sym is the handler's symbol for
// that label.
type nameEntry struct {
	tag   string
	local int32
	sym   Sym
}

func (e nameEntry) raw() string   { return e.tag[:len(e.tag)-1] }
func (e nameEntry) label() string { return e.tag[e.local : len(e.tag)-1] }

// labelSlots is the size of the direct-mapped label cache. A slot is
// picked from a name's length and its first and last bytes, and a hit is
// confirmed by comparing the bytes, so a collision costs only a fall
// through to the labels map, whose hash a peer cannot steer.
const labelSlots = 16

func labelSlot(raw []byte) int {
	return (len(raw) + int(raw[0])<<2 + int(raw[len(raw)-1])) & (labelSlots - 1)
}

// lookup resolves a raw start-tag name, allocation-free after the first
// occurrence of each distinct spelling.
func (f *Feeder) lookup(raw []byte) (nameEntry, error) {
	slot, hit := f.cached(raw)
	if hit {
		return *slot, nil
	}
	return f.miss(raw, slot)
}

// cached returns raw's slot in the label cache, and whether the slot
// holds raw.
func (f *Feeder) cached(raw []byte) (*nameEntry, bool) {
	slot := &f.recent[labelSlot(raw)]
	t := slot.tag
	return slot, len(t) == len(raw)+1 && string(raw) == t[:len(raw)]
}

// miss resolves a name the label cache does not hold, and caches it in
// slot.
func (f *Feeder) miss(raw []byte, slot *nameEntry) (nameEntry, error) {
	e, ok := f.labels[string(raw)]
	if !ok {
		// encoding/xml's nsname: more than one colon is not a name, and
		// one colon splits it only with both sides non-empty.
		c := bytes.IndexByte(raw, ':')
		if c >= 0 && bytes.IndexByte(raw[c+1:], ':') >= 0 {
			return e, f.fatal("malformed element name %q: more than one ':'", string(raw))
		}
		e = nameEntry{tag: string(raw) + ">"}
		if c > 0 && c < len(raw)-1 {
			e.local = int32(c + 1)
		}
		e.sym = f.h.Resolve(e.label())
		if f.labels == nil {
			f.labels = make(map[string]nameEntry, 8)
		}
		f.labels[e.raw()] = e
	}
	*slot = e
	return e, nil
}

// open resolves a raw start-tag name and opens its element.
func (f *Feeder) open(raw []byte) error {
	e, err := f.lookup(raw)
	if err != nil {
		return err
	}
	return f.start(e)
}

// start opens an element whose name resolved to e.
func (f *Feeder) start(e nameEntry) error {
	if f.depth == 0 {
		if f.roots > 0 {
			return f.fatal("multiple roots")
		}
		f.roots++
	}
	if f.depth >= f.skip {
		if err := f.h.StartElement(e.label(), e.sym); err != nil {
			f.err = err
			return err
		}
	}
	f.stack = append(f.stack, e.tag)
	f.depth++
	return nil
}

// close matches the raw end-tag name against the innermost open element.
func (f *Feeder) close(raw []byte) error {
	if f.depth == 0 {
		return f.fatal("unbalanced end tag </%s>", raw)
	}
	top := f.stack[len(f.stack)-1]
	if top = top[:len(top)-1]; string(raw) != top {
		return f.fatal("mismatched end tag: </%s> closes <%s>", raw, top)
	}
	return f.end()
}

// end closes the innermost open element.
func (f *Feeder) end() error {
	f.stack = f.stack[:len(f.stack)-1]
	f.depth--
	if f.depth >= f.skip && (f.run == nil || !f.run.leave()) {
		if err := f.h.EndElement(); err != nil {
			f.err = err
			return err
		}
	}
	return nil
}

// text reports a text run; a runner validated in place has no use for it.
func (f *Feeder) text() error {
	if f.depth >= f.skip && f.run == nil {
		if err := f.h.Text(); err != nil {
			f.err = err
			return err
		}
	}
	return nil
}

// nameStart and nameByte are the one definition of a tag name's bytes:
// which bytes can begin a name, and which can continue one. Liberal by
// design (any non-ASCII byte is accepted, as the middle of a UTF-8 rune):
// the validator cares about structure, not lexical niceties, and unknown
// labels are rejected by the schema anyway. A colon may begin a name, as
// in encoding/xml.
var nameStart, nameByte = nameTables()

func nameTables() (start, cont [256]bool) {
	for c := range 256 {
		start[c] = c == '_' || c == ':' || c >= 0x80 ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
		cont[c] = start[c] || c == '-' || c == '.' || ('0' <= c && c <= '9')
	}
	return start, cont
}

// scanName returns the end of the run of name bytes in p from i.
func scanName(p []byte, i int) int {
	for i < len(p) && nameByte[p[i]] {
		i++
	}
	return i
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// cdataOpen is the "<![CDATA[" discriminator past the "<!".
const cdataOpen = "[CDATA["

// Feed consumes the next chunk of the document. It may be called with
// chunks of any size, down to a single byte; tokenizer state carries
// across calls. The chunk is fully processed before Feed returns and is
// never retained.
func (f *Feeder) Feed(p []byte) error {
	if f.err != nil {
		return f.err
	}
	if f.closed {
		return f.fatal("Feed after Close")
	}
	i, n := 0, len(p)
	for i < n {
		switch f.state {
		case fsText:
			var err error
			if i, err = f.scan(p, i); err != nil {
				return err
			}

		case fsLT:
			c := p[i]
			i++
			switch {
			case c == '/':
				f.state = fsEndName
				f.name = f.name[:0]
			case c == '!':
				f.state = fsBang
				f.name = f.name[:0]
			case c == '?':
				f.state = fsPI
				f.mark = 0
			case nameStart[c]:
				f.state = fsStartName
				f.name = append(f.name[:0], c)
			default:
				return f.fatal("malformed markup: '<' followed by %q", c)
			}

		case fsStartName:
			e := scanName(p, i)
			f.name = append(f.name, p[i:e]...)
			if i = e; i == n {
				break
			}
			c := p[i]
			i++
			switch {
			case c == '>':
				if err := f.open(f.name); err != nil {
					return err
				}
				f.state = fsText
			case c == '/':
				f.state = fsStartTagSlash
			case isSpace(c):
				f.state = fsStartTag
			default:
				return f.fatal("malformed start tag <%s%c", f.name, c)
			}

		case fsStartTag:
			// Scanning attributes for '>', '/' or a quote. Attribute
			// syntax is deliberately not validated (the structural
			// abstraction drops attributes entirely; unquoted values
			// are tolerated where encoding/xml rejects them) — but a
			// '<' here is always a missing-'>' typo, and swallowing it
			// would silently eat the next tag.
			c := p[i]
			i++
			switch c {
			case '>':
				if err := f.open(f.name); err != nil {
					return err
				}
				f.state = fsText
			case '/':
				f.state = fsStartTagSlash
			case '"', '\'':
				f.quote = c
				f.state = fsStartTagQuote
			case '<':
				return f.fatal("'<' inside start tag <%s", f.name)
			}

		case fsStartTagQuote:
			j := bytes.IndexByte(p[i:], f.quote)
			if j < 0 {
				i = n
				break
			}
			i += j + 1
			f.state = fsStartTag

		case fsStartTagSlash:
			c := p[i]
			i++
			if c != '>' {
				return f.fatal("malformed self-closing tag <%s/%c", f.name, c)
			}
			if err := f.open(f.name); err != nil {
				return err
			}
			if err := f.end(); err != nil {
				return err
			}
			f.state = fsText

		case fsEndName:
			e := scanName(p, i)
			f.name = append(f.name, p[i:e]...)
			if i = e; i == n {
				break
			}
			c := p[i]
			i++
			switch {
			case c == '>':
				if err := f.close(f.name); err != nil {
					return err
				}
				f.state = fsText
			case isSpace(c) && len(f.name) > 0:
				f.state = fsEndTag
			default:
				return f.fatal("malformed end tag </%s%c", f.name, c)
			}

		case fsEndTag: // whitespace before '>' in an end tag
			c := p[i]
			i++
			switch {
			case c == '>':
				if err := f.close(f.name); err != nil {
					return err
				}
				f.state = fsText
			case isSpace(c):
			default:
				return f.fatal("malformed end tag </%s %c", f.name, c)
			}

		case fsBang: // decide comment vs CDATA vs DOCTYPE-like
			c := p[i]
			i++
			f.name = append(f.name, c)
			switch {
			case len(f.name) <= 2 && f.name[0] == '-':
				if len(f.name) == 2 {
					if f.name[1] != '-' {
						return f.fatal("malformed comment open <!-%c", f.name[1])
					}
					f.state = fsComment
					f.mark = 0
				}
			case len(f.name) <= len(cdataOpen) &&
				string(f.name) == cdataOpen[:len(f.name)]:
				if len(f.name) == len(cdataOpen) {
					f.state = fsCDATA
					f.mark = 0
				}
			default:
				// A declaration (DOCTYPE and friends). Replay the few
				// bytes already buffered, but the first, through the
				// declaration scanner: encoding/xml takes the byte
				// after "<!" as it is.
				f.state = fsDecl
				f.nest, f.mark, f.quote = 0, 0, 0
				for _, b := range f.name[1:] {
					f.declByte(b)
				}
			}

		case fsDecl:
			c := p[i]
			i++
			f.declByte(c)

		case fsComment, fsDeclComment:
			// Terminator "-->"; mark counts matched terminator bytes.
			c := p[i]
			i++
			switch {
			case f.mark == 2 && c == '>':
				if f.state == fsComment {
					f.state = fsText
				} else {
					f.state, f.mark = fsDecl, 0
				}
			case c == '-':
				if f.mark < 2 {
					f.mark++
				}
			default:
				f.mark = 0
			}

		case fsCDATA:
			// Terminator "]]>"; the section's bytes are character data.
			c := p[i]
			i++
			switch {
			case f.mark == 2 && c == '>':
				if err := f.text(); err != nil {
					return err
				}
				f.state = fsText
			case c == ']':
				if f.mark < 2 {
					f.mark++
				}
			default:
				f.mark = 0
			}

		case fsPI:
			// Terminator "?>".
			c := p[i]
			i++
			switch {
			case f.mark == 1 && c == '>':
				f.state = fsText
			case c == '?':
				f.mark = 1
			default:
				f.mark = 0
			}
		}
	}
	return f.err
}

// scan is the in-chunk loop, entered between markup at p[i]. It skips
// text to the next '<', and handles a start tag <name> or <name/>, or the
// end tag of the innermost open element, that lies wholly in p in place,
// then goes on to the next, until the chunk ends or markup it cannot
// finish in place begins. That markup it hands to the byte machine in the
// state the machine would have reached, with the index it resumes from.
func (f *Feeder) scan(p []byte, i int) (int, error) {
	r := f.run
	for {
		// Serialized documents are indented: a short run of
		// whitespace is cheaper to step over than to search.
		j := i
		for j < len(p) && isSpace(p[j]) {
			j++
		}
		if j == len(p) || p[j] != '<' {
			k := bytes.IndexByte(p[j:], '<')
			if k < 0 {
				// The run may continue in the next chunk: defer the
				// event so a contiguous text run is one Text call no
				// matter how the chunks split it.
				f.pendingText = r == nil
				return len(p), nil
			}
			j += k
		}
		if r == nil && (j > i || f.pendingText) {
			f.pendingText = false
			if err := f.text(); err != nil {
				return i, err
			}
		}
		if i = j + 1; i == len(p) {
			f.state = fsLT
			return i, nil
		}
		closing := false // the tag just read closes the innermost element
		switch c := p[i]; {
		case nameStart[c]:
			e := scanName(p, i+1)
			raw := p[i:e]
			switch {
			case e < len(p) && p[e] == '>':
				i = e + 1
			case e+1 < len(p) && p[e] == '/' && p[e+1] == '>':
				i, closing = e+2, true
			default:
				f.name = append(f.name[:0], raw...)
				f.state = fsStartName
				return e, nil
			}
			slot, hit := f.cached(raw)
			ent := *slot
			if !hit {
				var err error
				if ent, err = f.miss(raw, slot); err != nil {
					return e, err
				}
			}
			// A child the runner accepts below the root steps its
			// parent's content DFA and pushes its frame in place; the
			// root and every rejection take StartElement. (depth > 0
			// also passes over a suppressed fragment root: skip is at
			// most 1.)
			if r != nil && f.depth > 0 && len(r.st) > 0 {
				top := &r.st[len(r.st)-1]
				prog := &r.m.progs[top.name]
				if uint(ent.sym) < uint(len(prog.child)) {
					// next is defined only where the label has a
					// child witness.
					if next := prog.next[int(top.state)*len(prog.child)+int(ent.sym)]; next >= 0 {
						top.state = next
						child := prog.child[ent.sym]
						r.st = append(r.st, stFrame{name: child, sym: ent.sym, state: r.m.progs[child].start})
						f.stack = append(f.stack, ent.tag)
						f.depth++
						break
					}
				}
			}
			if err := f.start(ent); err != nil {
				return e, err
			}
		case c == '/':
			if f.depth > 0 {
				top := f.stack[len(f.stack)-1]
				if e := i + 1 + len(top); e <= len(p) && string(p[i+1:e]) == top {
					i, closing = e, true
					break
				}
			}
			f.name = f.name[:0]
			f.state = fsEndName
			return i + 1, nil
		default:
			f.state = fsLT
			return i, nil
		}
		if closing {
			// end, written out: a complete element below the root
			// pops its frame in place; the root and every rejection
			// take EndElement.
			f.stack = f.stack[:len(f.stack)-1]
			f.depth--
			if f.depth >= f.skip && (r == nil || !r.leave()) {
				if err := f.h.EndElement(); err != nil {
					f.err = err
					return i, err
				}
			}
		}
		if i == len(p) {
			return i, nil
		}
	}
}

// declByte advances the declaration scanner by one byte, by encoding/xml's
// rule: outside quoted literals, each '<' opens a nesting level and each
// '>' closes one, the '>' at level 0 ends the declaration, and a "<!--"
// opens a comment that nests nothing. Brackets count for nothing.
func (f *Feeder) declByte(c byte) {
	if f.mark > 0 { // '<' seen: is it "<!--"?
		if c == "<!--"[f.mark] {
			if f.mark++; f.mark == 4 {
				f.state = fsDeclComment
				f.mark = 0
			}
			return
		}
		f.mark = 0
		f.nest++
	} else if f.quote == 0 && c == '>' && f.nest == 0 {
		f.state = fsText
		return
	}
	switch {
	case f.quote != 0:
		if c == f.quote {
			f.quote = 0
		}
	case c == '"' || c == '\'':
		f.quote = c
	case c == '>':
		f.nest--
	case c == '<':
		f.mark = 1
	}
}

// Close declares end of input and returns the final verdict: the sticky
// error if any, a well-formedness error if the document is truncated,
// unterminated or empty, and otherwise — for feeders bound to a Machine —
// the validation verdict. Close is idempotent.
func (f *Feeder) Close() error {
	if f.closed {
		return f.closeErr
	}
	f.closed = true
	if f.err == nil && f.pendingText {
		// A text run ending at EOF still owes its event.
		f.pendingText = false
		f.text()
	}
	err := f.err
	switch {
	case err != nil:
	case f.state != fsText:
		err = fmt.Errorf("stream: truncated document (unterminated markup)")
	case f.depth != 0:
		err = fmt.Errorf("stream: unterminated elements (%d open)", f.depth)
	case f.roots == 0 && f.skip > 0:
		err = fmt.Errorf("stream: empty fragment document")
	case f.roots == 0:
		err = fmt.Errorf("stream: empty document")
	}
	if f.onClose != nil {
		err = f.onClose(err)
	}
	f.closeErr = err
	return err
}
