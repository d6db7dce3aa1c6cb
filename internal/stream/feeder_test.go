package stream

import (
	"encoding/xml"
	"fmt"
	"io"
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

// countHandler accepts every event, counting starts and ends, so the
// tokenizer can be tested independently of any schema.
type countHandler struct {
	starts, ends, texts int
	labels              []string
}

func (c *countHandler) Resolve(string) Sym { return NoSym }

func (c *countHandler) StartElement(label string, _ Sym) error {
	c.starts++
	c.labels = append(c.labels, label)
	return nil
}
func (c *countHandler) Text() error       { c.texts++; return nil }
func (c *countHandler) EndElement() error { c.ends++; return nil }

// feedBytes pushes src through a fresh Feeder in chunks of the given
// size and closes it.
func feedBytes(h Handler, src string, chunk int, inner bool) error {
	var f *Feeder
	if inner {
		f = NewInnerFeeder(h)
	} else {
		f = NewFeeder(h)
	}
	b := []byte(src)
	for len(b) > 0 {
		n := min(chunk, len(b))
		if err := f.Feed(b[:n]); err != nil {
			// Sticky: Close must report the same verdict.
			if cerr := f.Close(); cerr == nil {
				return fmt.Errorf("Feed failed (%v) but Close succeeded", err)
			}
			return err
		}
		b = b[n:]
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
	"<ns:a><ns:b/></ns:a>",
	"  <a>  <b> text </b> </a>  ",
	"<a>&lt;entity&gt;</a>",
}

// TestFeederAgreesWithDecoder pins the hand-rolled push tokenizer against
// the encoding/xml oracle on the malformed corpus: the verdict
// (accepted/rejected) must agree for whole-document, 7-byte-chunk, and
// one-byte-at-a-time feeding.
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
			if err == nil {
				if h.starts != oracleH.starts || h.ends != oracleH.ends {
					t.Errorf("chunk %d on %q: feeder saw %d/%d events, decoder %d/%d",
						chunk, src, h.starts, h.ends, oracleH.starts, oracleH.ends)
				}
				if fmt.Sprint(h.labels) != fmt.Sprint(oracleH.labels) {
					t.Errorf("chunk %d on %q: labels %v vs decoder %v",
						chunk, src, h.labels, oracleH.labels)
				}
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
}

// TestFeederChunkBoundaryInvariance serializes a real document and checks
// that every chunk size yields the identical event sequence — markup is
// split at arbitrary byte positions, including inside tags, names,
// comments and CDATA terminators.
func TestFeederChunkBoundaryInvariance(t *testing.T) {
	doc := xmltree.MustParse("s(a(b c(d) e) f(g(h i) j) k)")
	src := "<?pi data?><!-- x -->" + doc.XMLString() + "<!-- tail -->"
	var want countHandler
	if err := feedBytes(&want, src, len(src), false); err != nil {
		t.Fatal(err)
	}
	for chunk := 1; chunk <= 13; chunk++ {
		var h countHandler
		if err := feedBytes(&h, src, chunk, false); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if fmt.Sprint(h.labels) != fmt.Sprint(want.labels) || h.ends != want.ends {
			t.Fatalf("chunk %d: events diverge: %v vs %v", chunk, h.labels, want.labels)
		}
		if h.texts != want.texts {
			t.Fatalf("chunk %d: text runs not coalesced: %d events vs %d",
				chunk, h.texts, want.texts)
		}
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
