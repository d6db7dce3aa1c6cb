package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// feedLog pushes src through a fresh schema-free Feeder, cut as
// feedChunks cuts it, and returns the event log with the verdict.
func feedLog(src []byte, sizes []int) (*countHandler, error) {
	h := &countHandler{}
	return h, feedChunks(NewFeeder(h), src, sizes)
}

// FuzzFeeder is the push parser's differential fuzz target, run against
// one machine per validation path (single-type fast path and general
// subset tracker):
//   - whenever encoding/xml parses the input into a tree, the Feeder's
//     verdict equals Machine.ValidateTree on that tree;
//   - random chunk splits, down to one byte at a time, give the same
//     verdict with byte-identical error text;
//   - the same splits give a schema-free Feeder the same event stream —
//     starts with label and symbol, text runs, ends — and error text as
//     feeding it whole, which pins the in-chunk tag path (whole input)
//     against the byte machine (one byte at a time);
//   - whenever encoding/xml accepts the input, so does that Feeder, with
//     the decoder's start/end sequence;
//   - a runner validated in place gives the verdict and error text of
//     the same runner behind the Handler path, whole, split and one byte
//     at a time, for the input as a document and as a fragment spliced
//     under an open kernel root;
//   - malformed input fails with an error, never a panic.
//
// The seeds cover the cases end-tag matching and name resolution must
// get right: mismatched end tags, prefixed names (<a:b> has label b but
// must be closed by </a:b>), self-closing tags, whitespace before a
// tag's '>', labels the machine does not know, the label splits of
// encoding/xml's nsname, and names split across chunk boundaries
// (random splits are at most 9 bytes long).
func FuzzFeeder(f *testing.F) {
	for _, s := range []string{
		"<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat>",
		"<eurostat><averages><Good></Good><index><value/><year/></index></averages></eurostat>",
		"<eurostat><averages><Good/><index><value/><year/></index></averages></eurostatt>",
		"<eurostat><averages><Good/></index></averages></eurostat>",
		"<x:eurostat><averages><Good/><index><value/><year/></index></averages></x:eurostat>",
		"<x:eurostat><averages/></eurostat>",
		"<eurostat></x:eurostat>",
		"<a:b></b>",
		"<s><a><b/></a><a><b/></a></s>",
		"<s><a><b/></a><a><c/></a></s>",
		"<s><a><b></b></a><q:a><b/></q:a></s>",
		"<eurostat><averages><Good/><zz/></averages></eurostat>",
		"<zz/>",
		"<s><zz><b/></zz></s>",
		"<eurostat note='a>b'><!-- c --><?pi x?><averages><![CDATA[<x>]]><Good/><index><value/><year/></index></averages></eurostat>",
		"<eurostat/><eurostat/>",
		"</eurostat>",
		"<eurostat",
		"<a />",
		"<a></a >",
		"<a x='>' y=\"/>\"><b/></a>",
		"<nationalIndex><country/><averagesAndMore></averagesAndMore></nationalIndex>",
		"<x:eurostat><y:averages/><zz:nationalIndex /></x:eurostat>",
		"<a:></a:>",
		"<a:b:c></a:b:c>",
		"<:a></:a>",
		// One seed per runner check: an unknown label, a child its
		// parent's witness does not allow, a child that breaks the
		// parent's content model (π), an element closed with incomplete
		// content, and a second root.
		"<eurostat><averages><Good/><index><zz/></index></averages></eurostat>",
		"<eurostat><averages><country/></averages></eurostat>",
		"<eurostat><averages><index><value/><year/></index></averages></eurostat>",
		"<eurostat><averages><Good/></averages></eurostat>",
		"<eurostat><averages><Good/><index><value/><year/></index></averages></eurostat><eurostat/>",
		"<f><averages><Good/><index><value/><year/></index></averages><nationalIndex><country/><Good/></nationalIndex></f>",
		// Declarations end where encoding/xml ends them.
		"<!DOCTYPE a [ > ]><eurostat/>",
		"<!DOCTYPE a <!-- > --> ><eurostat/>",
	} {
		f.Add([]byte(s), int64(len(s)))
	}
	machines := []*Machine{
		Compile(eurostatEDTD(f, schema.KindNRE)),
		Compile(generalEDTD(f, schema.KindNRE)),
	}
	kernels := []string{"eurostat", "s"} // each machine's root label
	f.Fuzz(func(t *testing.T, src []byte, seed int64) {
		if len(src) > 1<<12 {
			return // one-byte feeding of every input: keep each run short
		}
		r := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+r.Intn(4))
		for i := range sizes {
			sizes[i] = 1 + r.Intn(9)
		}
		events, eventsErr := feedLog(src, nil)
		for _, split := range [][]int{sizes, {1}} {
			got, err := feedLog(src, split)
			if fmt.Sprint(err) != fmt.Sprint(eventsErr) {
				t.Fatalf("split %v on %q: %v, whole document: %v", split, src, err, eventsErr)
			}
			if g, w := strings.Join(got.log, ","), strings.Join(events.log, ","); g != w {
				t.Fatalf("split %v on %q: events %s, whole document: %s", split, src, g, w)
			}
		}
		var oracle countHandler
		if decodeXMLEvents(bytes.NewReader(src), &oracle) == nil {
			if g, w := fmt.Sprint(events.structure()), fmt.Sprint(oracle.structure()); eventsErr != nil || g != w {
				t.Fatalf("feeder on %q: events %s (%v), encoding/xml %s", src, g, eventsErr, w)
			}
		}
		tree, oerr := xmltree.ParseXML(string(src))
		for k, m := range machines {
			checkInPlace(t, m, src, "", sizes)
			checkInPlace(t, m, src, kernels[k], sizes)
			whole := feedChunks(m.NewFeeder(), src, nil)
			for _, split := range [][]int{sizes, {1}} {
				got := feedChunks(m.NewFeeder(), src, split)
				if (got == nil) != (whole == nil) || (got != nil && got.Error() != whole.Error()) {
					t.Fatalf("split %v on %q: %v, whole document: %v", split, src, got, whole)
				}
			}
			if oerr != nil {
				continue
			}
			if want := m.ValidateTree(tree); (want == nil) != (whole == nil) {
				t.Fatalf("feeder on %q: %v; encoding/xml tree %s validates to %v",
					src, whole, tree, want)
			}
		}
	})
}
