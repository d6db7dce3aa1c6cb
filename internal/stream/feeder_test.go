package stream

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// decodeXMLEvents is the encoding/xml reference front-end, the
// differential oracle for the hand-rolled Feeder tokenizer (chunked and
// byte-at-a-time feeding are pinned against it).
func decodeXMLEvents(r io.Reader, h Handler) error {
	dec := xml.NewDecoder(r)
	depth, roots := 0, 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				if roots > 0 {
					return fmt.Errorf("stream: multiple roots")
				}
				roots++
			}
			if err := startElement(h, el.Name.Local); err != nil {
				return err
			}
			depth++
		case xml.EndElement:
			depth--
			if err := h.EndElement(); err != nil {
				return err
			}
		case xml.CharData:
			if err := h.Text(); err != nil {
				return err
			}
		}
	}
	if roots == 0 {
		return fmt.Errorf("stream: empty document")
	}
	if depth != 0 {
		return fmt.Errorf("stream: unterminated elements")
	}
	return nil
}

// countHandler accepts every event, counting starts and ends and logging
// every event in order, so the tokenizer can be tested independently of
// any schema. Its Resolve is a deterministic hash of the label, never
// NoSym, so the log pins the symbol each start carries too.
type countHandler struct {
	starts, ends int
	labels       []string
	log          []string // "<label sym", "text", "/"
}

func (c *countHandler) Resolve(label string) Sym {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(label); i++ {
		h = (h ^ uint32(label[i])) * 16777619
	}
	return Sym(h & 0xffff)
}

func (c *countHandler) StartElement(label string, sym Sym) error {
	c.starts++
	c.labels = append(c.labels, label)
	c.log = append(c.log, fmt.Sprintf("<%s %d", label, sym))
	return nil
}
func (c *countHandler) Text() error {
	c.log = append(c.log, "text")
	return nil
}
func (c *countHandler) EndElement() error {
	c.ends++
	c.log = append(c.log, "/")
	return nil
}

// structure is the log without its text events: the start/end sequence,
// which the encoding/xml oracle must match event for event.
func (c *countHandler) structure() []string {
	var s []string
	for _, ev := range c.log {
		if ev != "text" {
			s = append(s, ev)
		}
	}
	return s
}

// feedBytes pushes src through a fresh Feeder in chunks of the given
// size and closes it.
func feedBytes(h Handler, src string, chunk int, inner bool) error {
	if inner {
		return feedChunks(NewInnerFeeder(h), []byte(src), []int{chunk})
	}
	return feedChunks(NewFeeder(h), []byte(src), []int{chunk})
}

// feedChunks pushes src through f, cutting it at the given chunk sizes
// (cycled; the rest goes in one chunk when sizes is empty), and returns
// the verdict.
func feedChunks(f *Feeder, src []byte, sizes []int) error {
	for i := 0; len(src) > 0; i++ {
		n := len(src)
		if len(sizes) > 0 {
			n = min(sizes[i%len(sizes)], len(src))
		}
		if err := f.Feed(src[:n]); err != nil {
			// Sticky: Close must report the same verdict.
			if cerr := f.Close(); cerr == nil {
				return fmt.Errorf("Feed failed (%v) but Close succeeded", err)
			}
			return err
		}
		src = src[n:]
	}
	return f.Close()
}

// malformedCorpus is the error-path corpus of the satellite task:
// truncated documents, mismatched end tags, multiple roots, unterminated
// markup — plus well-formed decorated documents that must pass. Every
// entry is checked for verdict agreement between the encoding/xml
// decoder, the chunked Feeder, and a Feeder fed one byte at a time.
var malformedCorpus = []string{
	// Empty and truncated.
	"",
	"   \n\t ",
	"<eurostat>",
	"<eurostat",
	"<eurostat><averages>",
	"<eurostat><averages></averages>",
	"<a><b/>",
	"<a><b></a>",
	"<!-- only a comment -->",
	"<a/><!-- trailing comment",
	"<a><![CDATA[unterminated",
	"<a>text",
	"<?xml version=\"1.0\"?>",
	// Mismatched end tags.
	"<a></b>",
	"<a><b></a></b>",
	"<a><b></b></c>",
	"</a>",
	"<a/></a>",
	// Multiple roots.
	"<a/><b/>",
	"<a></a><a></a>",
	"<a/><a/>",
	// Malformed markup.
	"<>",
	"< a></a>",
	"<a//>",
	"<a/ >",
	"<1a/>",
	// Well-formed documents that must be accepted structurally.
	"<a/>",
	"<a></a>",
	"<a ></a>",
	"<a></a >",
	"<a attr=\"v>alue\" other='x'/>",
	"<a><!-- c with > inside --><b/></a>",
	"<a><![CDATA[ <not><markup/> ]]></a>",
	"<?xml version=\"1.0\"?><a/>",
	"<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>",
	"<!DOCTYPE a SYSTEM \"x[y\"><a/>",
	"<!DOCTYPE a SYSTEM 'x]y'><a/>",
	"<!DOCTYPE a SYSTEM \"x>y\"><a/>",
	// A stale attribute quote must not leak into a later declaration.
	"<a attr='q'><b/></a><!DOCTYPE x>",
	// A declaration ends where encoding/xml ends it: at the '>' that
	// closes its outermost '<' nesting level outside quoted literals,
	// with "<!--…-->" inside it nesting nothing and brackets counting
	// for nothing. The first is the input FuzzFeeder found.
	"<!0<0><00>000><a>0000</a>",
	"<!DOCTYPE a [ <!ENTITY e '>'> ]><a/>",
	"<!DOCTYPE a [ > ]><a/>",
	"<!DOCTYPE a <!-- > < --> ><a/>",
	"<!DOCTYPE a <!-- < --> ><a/>",
	"<!DOCTYPE a <!-- c --> ><a/>",
	"<!DOCTYPE a <!-- c --> <b> ><a/>",
	"<!DOCTYPE a <!- > ><a/>",
	"<!DOCTYPE a <b \"<\"> ><a/>",
	"<!x<<>>><a/>",
	"<!><a/>>",
	"<!'>' ><a/>",
	"<!DOCTYPE a <!--> --> ><a/>",
	"<!DOCTYPE a <<!-- x -->> ><a/>",
	"<ns:a><ns:b/></ns:a>",
	"  <a>  <b> text </b> </a>  ",
	"<a>&lt;entity&gt;</a>",
	// Label splits follow encoding/xml's nsname: one colon with both
	// sides non-empty splits, more than one is not a name, and a colon
	// may begin a name.
	"<a:></a:>",
	"<a:b:c></a:b:c>",
	"<:a></:a>",
}

// TestFeederAgreesWithDecoder pins the hand-rolled push tokenizer against
// the encoding/xml oracle on the malformed corpus: the verdict
// (accepted/rejected) must agree for whole-document, 7-byte-chunk, and
// one-byte-at-a-time feeding, and on acceptance so must the start/end
// sequence, labels and symbols included.
func TestFeederAgreesWithDecoder(t *testing.T) {
	for _, src := range malformedCorpus {
		var oracleH countHandler
		oracleErr := decodeXMLEvents(strings.NewReader(src), &oracleH)
		for _, chunk := range []int{1, 7, 1 << 20} {
			var h countHandler
			err := feedBytes(&h, src, chunk, false)
			if (err == nil) != (oracleErr == nil) {
				t.Errorf("chunk %d on %q: feeder says %v, decoder says %v",
					chunk, src, err, oracleErr)
				continue
			}
			if got, want := fmt.Sprint(h.structure()), fmt.Sprint(oracleH.structure()); err == nil && got != want {
				t.Errorf("chunk %d on %q: events %s, decoder %s", chunk, src, got, want)
			}
		}
	}
}

// TestFeederVerdictsAgainstMachine runs the malformed corpus through a
// Machine-bound feeder and checks that feeding one byte at a time agrees
// with the reader front-end on the *validation* verdict, not just
// well-formedness.
func TestFeederVerdictsAgainstMachine(t *testing.T) {
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	corpus := append([]string{}, malformedCorpus...)
	corpus = append(corpus,
		"<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat>",
		"<eurostat><averages><Good/></averages></eurostat>",
		"<eurostat note='x'><!-- c --><averages><Good>g</Good><index><value>1</value><year>2009</year></index></averages></eurostat>",
	)
	for _, src := range corpus {
		want := m.ValidateReader(strings.NewReader(src)) == nil
		f := m.NewFeeder()
		var err error
		for i := 0; i < len(src) && err == nil; i++ {
			err = f.Feed([]byte{src[i]})
		}
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if (err == nil) != want {
			t.Errorf("byte-at-a-time on %q: got %v, reader front-end valid=%v", src, err, want)
		}
		// Close is idempotent and Feed after Close fails.
		if again := f.Close(); (again == nil) != (cerr == nil) {
			t.Errorf("Close not idempotent on %q: %v then %v", src, cerr, again)
		}
		if ferr := f.Feed([]byte("<x/>")); ferr == nil {
			t.Errorf("Feed after Close should fail on %q", src)
		}
	}
}

// TestInnerFeeder checks fragment splicing semantics: the root's events
// are suppressed, its children's are forwarded, and an empty input is a
// distinct error.
func TestInnerFeeder(t *testing.T) {
	var h countHandler
	if err := feedBytes(&h, "<r><a/><b><c/></b></r>", 3, true); err != nil {
		t.Fatalf("inner feed failed: %v", err)
	}
	if h.starts != 3 || h.ends != 3 {
		t.Errorf("inner feeder forwarded %d/%d events, want 3/3", h.starts, h.ends)
	}
	if fmt.Sprint(h.labels) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Errorf("inner labels = %v", h.labels)
	}
	if err := feedBytes(&countHandler{}, "", 1, true); err == nil ||
		!strings.Contains(err.Error(), "empty fragment") {
		t.Errorf("empty inner document: got %v", err)
	}
	if err := feedBytes(&countHandler{}, "<r><a/>", 1, true); err == nil {
		t.Error("truncated inner document accepted")
	}

	// Kernel mode: a fragment's forest spliced under an open kernel
	// root, as the kernel peer validates it, gives the same verdict and
	// error text in place as on the Handler path.
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	run := m.NewRunner()
	defer run.Release()
	if NewInnerFeeder(run).run == nil || NewInnerFeeder(hiddenRunner{run}).run != nil {
		t.Fatal("only a bare single-type runner is validated in place")
	}
	averages := "<averages><Good/><index><value/><year/></index></averages>"
	entry := "<nationalIndex><country/><Good/><index><value/><year/></index></nationalIndex>"
	r := rand.New(rand.NewSource(1))
	for _, frag := range append(runnerErrorDocs("nationalIndex", averages, entry),
		"<f>"+averages+strings.Repeat(entry, 40)+"</f>",
		"<f>"+averages+"</f><f/>",
		"<f></f>",
		"",
	) {
		checkInPlace(t, m, []byte(frag), "eurostat", nil, []int{1}, randomSizes(r, 9), randomSizes(r, 40))
	}
}

// runnerErrorDocs returns Eurostat documents under a root labelled
// root: one valid, and one failing each of the runner's checks below the
// root — an unknown label, a child its parent's witness does not allow,
// a child that breaks the parent's content model (π), an element closed
// with incomplete content — and a second root. As fragments spliced
// under a kernel root, a root label the kernel root may have as a child
// checks that the suppressed fragment root never reaches the runner.
func runnerErrorDocs(root, averages, entry string) []string {
	open, end := "<"+root+">", "</"+root+">"
	return []string{
		open + averages + entry + end,
		open + averages + "<nationalIndex><zz/></nationalIndex>" + end,
		open + averages + "<nationalIndex><averages/></nationalIndex>" + end,
		open + averages + "<nationalIndex><Good/><country/></nationalIndex>" + end,
		open + averages + "<nationalIndex><country/><Good/></nationalIndex>" + end,
		open + averages + entry + end + open + entry + end,
	}
}

// randomSizes draws a chunk split for feedChunks: 1–6 sizes of 1 to max
// bytes.
func randomSizes(r *rand.Rand, max int) []int {
	sizes := make([]int, 1+r.Intn(6))
	for i := range sizes {
		sizes[i] = 1 + r.Intn(max)
	}
	return sizes
}

// hiddenRunner hides a Runner's type from the Feeder, which then takes
// the Handler path for every event, as for any custom handler.
type hiddenRunner struct{ *Runner }

// pathVerdict feeds src, cut as feedChunks cuts it, to a fresh runner of
// m and returns the verdict. With hide the events take the Handler path;
// otherwise a single-type runner is validated in place. A non-empty
// kernel splices src's forest under an open root of that label, as the
// kernel peer splices a fragment at a docking point; "" feeds src as a
// whole document.
func pathVerdict(m *Machine, src []byte, sizes []int, hide bool, kernel string) error {
	r := m.NewRunner()
	defer r.Release()
	var h Handler = r
	if hide {
		h = hiddenRunner{r}
	}
	if kernel == "" {
		if err := feedChunks(NewFeeder(h), src, sizes); err != nil {
			return err
		}
		return r.Finish()
	}
	if err := startElement(r, kernel); err != nil {
		return err
	}
	if err := feedChunks(NewInnerFeeder(h), src, sizes); err != nil {
		return err
	}
	if err := r.EndElement(); err != nil {
		return err
	}
	return r.Finish()
}

// checkInPlace requires the in-place path and the Handler path to give
// src the same verdict and byte-identical error text, cut at each of
// splits as feedChunks cuts it (nil feeds it whole).
func checkInPlace(t testing.TB, m *Machine, src []byte, kernel string, splits ...[]int) {
	t.Helper()
	for _, sizes := range splits {
		got := pathVerdict(m, src, sizes, false, kernel)
		want := pathVerdict(m, src, sizes, true, kernel)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("kernel %q, split %v on %q: in place %v, Handler path %v",
				kernel, sizes, src, got, want)
		}
	}
}

// TestFeederChunkBoundaryInvariance serializes a real document, decorated
// with the markup the byte machine handles (attributes, whitespace in
// tags, prefixes, comments, CDATA, a PI), and checks that every chunk
// size and random split yields the identical event log — starts with
// their symbols, text runs and ends — as feeding it whole, and that the
// whole document's start/end sequence is encoding/xml's. Markup is split
// at arbitrary byte positions, including inside tags, names, comments
// and CDATA terminators, so the in-chunk tag path is pinned against the
// byte machine.
func TestFeederChunkBoundaryInvariance(t *testing.T) {
	doc := xmltree.MustParse("s(a(b c(d) e) f(g(h i) j) k)").XMLString()
	end := strings.LastIndex(doc, "</s>")
	src := []byte("<?pi data?><!-- x -->" + doc[:end] +
		`<x:long-name.1 attr="v>w" other='q'><y:self-closing-name />` +
		`<![CDATA[ <not/> ]]>text</x:long-name.1 ><a/><a ></a><:c/><d:></d:>` +
		doc[end:] + "<!-- tail -->")
	var want, oracle countHandler
	if err := feedChunks(NewFeeder(&want), src, nil); err != nil {
		t.Fatal(err)
	}
	if err := decodeXMLEvents(bytes.NewReader(src), &oracle); err != nil {
		t.Fatal(err)
	}
	if got, w := fmt.Sprint(want.structure()), fmt.Sprint(oracle.structure()); got != w {
		t.Fatalf("events %s, decoder %s", got, w)
	}
	check := func(what string, sizes []int) {
		t.Helper()
		var h countHandler
		if err := feedChunks(NewFeeder(&h), src, sizes); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, w := strings.Join(h.log, ","), strings.Join(want.log, ","); got != w {
			t.Fatalf("%s: events diverge:\n got %s\nwant %s", what, got, w)
		}
	}
	for chunk := 1; chunk <= 13; chunk++ {
		check(fmt.Sprintf("chunk %d", chunk), []int{chunk})
	}
	r := rand.New(rand.NewSource(1))
	for range 20 {
		sizes := randomSizes(r, 40)
		check(fmt.Sprintf("split %v", sizes), sizes)
	}

	// The same decorations on Eurostat documents, valid and failing each
	// runner check, validated in place and on the Handler path: every
	// chunk size and random split gives both the same verdict and error
	// text, whole documents and fragments spliced under a kernel root.
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	averages := `<averages><?pi x?><Good a="1>"/><!-- c --><index ><value/><year><![CDATA[<y/>]]></year></index></averages>`
	entry := `<x:nationalIndex><country iso='LU'/>text<Good/><index><value /><year/></index></x:nationalIndex >`
	splits := [][]int{nil}
	for chunk := 1; chunk <= 13; chunk++ {
		splits = append(splits, []int{chunk})
	}
	for range 10 {
		splits = append(splits, randomSizes(r, 40))
	}
	prolog := "<?xml version='1.0'?><!DOCTYPE eurostat [ <!ELEMENT eurostat ANY> ]>"
	for _, doc := range runnerErrorDocs("eurostat", averages, entry) {
		checkInPlace(t, m, []byte(prolog+doc), "", splits...)
	}
	for _, frag := range runnerErrorDocs("nationalIndex", averages, entry) {
		checkInPlace(t, m, []byte(frag), "eurostat", splits...)
	}
}

// TestFeederPrefixedEndTags pins end-tag matching on raw names (prefix
// included, as encoding/xml matches) while labels reach the handler
// prefix-stripped, and '<' inside a start tag is rejected — with the
// same error text whether a name arrives whole or split across chunks.
func TestFeederPrefixedEndTags(t *testing.T) {
	var h countHandler
	if err := feedBytes(&h, "<x:a><x:b/></x:a>", 1, false); err != nil {
		t.Fatalf("prefixed document rejected: %v", err)
	}
	if fmt.Sprint(h.labels) != fmt.Sprint([]string{"a", "b"}) {
		t.Errorf("labels = %v, want prefix-stripped [a b]", h.labels)
	}
	for _, c := range []struct{ src, want string }{
		// mismatched prefixes (encoding/xml rejects)
		{"<x:a></y:a>", "stream: mismatched end tag: </y:a> closes <x:a>"},
		// prefix dropped on close
		{"<x:a></a>", "stream: mismatched end tag: </a> closes <x:a>"},
		// prefix added on close
		{"<a></x:a>", "stream: mismatched end tag: </x:a> closes <a>"},
		{"</x:a>", "stream: unbalanced end tag </x:a>"},
		// '<' inside a start tag
		{"<a <b/>></a>", "stream: '<' inside start tag <a"},
	} {
		for _, chunk := range []int{1, 3, len(c.src)} {
			if err := feedBytes(&countHandler{}, c.src, chunk, false); err == nil || err.Error() != c.want {
				t.Errorf("feedBytes(%q, chunk %d) = %v, want %q", c.src, chunk, err, c.want)
			}
		}
	}
}

// TestFeederFeedAllocFree pins the push path at zero allocations per
// Feed once the Feeder has seen every label: a reused inner Feeder, as the
// kernel peer splices a fragment into its validation run, fed the
// nationalIndex entries of a Eurostat document again and again, in 4 KiB
// chunks and in 1-byte chunks, through the validator.
func TestFeederFeedAllocFree(t *testing.T) {
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	r := m.NewRunner()
	defer r.Release()
	if err := startElement(r, "eurostat"); err != nil {
		t.Fatal(err)
	}
	doc := eurostatDocBytes(2_000)
	end := bytes.LastIndex(doc, []byte("</eurostat>"))
	entries := doc[bytes.Index(doc, []byte("<nationalIndex>")):end]
	f := NewInnerFeeder(r)
	if err := f.Feed(doc[:end]); err != nil { // warms the label table
		t.Fatal(err)
	}
	for _, chunk := range []int{4096, 1} {
		feeds := (len(entries) + chunk - 1) / chunk
		allocs := testing.AllocsPerRun(3, func() {
			for off := 0; off < len(entries); off += chunk {
				if err := f.Feed(entries[off:min(off+chunk, len(entries))]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("chunk %d: %v allocations per %d Feeds, want 0", chunk, allocs, feeds)
		}
	}
	if err := f.Feed(doc[end:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.EndElement(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}
