package stream

import (
	"math/rand"
	"testing"

	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// feedSplit pushes src through a fresh Feeder of m, cutting it at the
// given chunk sizes (cycled; the rest goes in one chunk when sizes is
// empty), and returns the verdict.
func feedSplit(m *Machine, src []byte, sizes []int) error {
	f := m.NewFeeder()
	for i := 0; len(src) > 0; i++ {
		n := len(src)
		if len(sizes) > 0 {
			n = min(sizes[i%len(sizes)], len(src))
		}
		if err := f.Feed(src[:n]); err != nil {
			f.Close()
			return err
		}
		src = src[n:]
	}
	return f.Close()
}

// FuzzFeeder is the push parser's differential fuzz target, run against
// one machine per validation path (single-type fast path and general
// subset tracker):
//   - whenever encoding/xml parses the input into a tree, the Feeder's
//     verdict equals Machine.ValidateTree on that tree;
//   - random chunk splits, down to one byte at a time, give the same
//     verdict with byte-identical error text;
//   - malformed input fails with an error, never a panic.
//
// The seeds cover the cases end-tag matching and name resolution must
// get right: mismatched end tags, prefixed names (<a:b> has label b but
// must be closed by </a:b>), self-closing tags, labels the machine does
// not know, and names split across chunk boundaries.
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
	} {
		f.Add([]byte(s), int64(len(s)))
	}
	machines := []*Machine{
		Compile(eurostatEDTD(f, schema.KindNRE)),
		Compile(generalEDTD(f, schema.KindNRE)),
	}
	f.Fuzz(func(t *testing.T, src []byte, seed int64) {
		if len(src) > 1<<12 {
			return // one-byte feeding of every input: keep each run short
		}
		r := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+r.Intn(4))
		for i := range sizes {
			sizes[i] = 1 + r.Intn(9)
		}
		tree, oerr := xmltree.ParseXML(string(src))
		for _, m := range machines {
			whole := feedSplit(m, src, nil)
			for _, split := range [][]int{sizes, {1}} {
				got := feedSplit(m, src, split)
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
