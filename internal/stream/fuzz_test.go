package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
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

// feederSeeds are FuzzFeeder's seed inputs. They cover the cases
// end-tag matching and name resolution must get right: mismatched end
// tags, prefixed names (<a:b> has label b but must be closed by
// </a:b>), self-closing tags, whitespace before a tag's '>', labels the
// machine does not know, the label splits of encoding/xml's nsname, and
// names split across chunk boundaries (fuzz-chosen splits are at most 9
// bytes long).
var feederSeeds = []string{
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
}

// feederOracle is what FuzzFeeder checks an input against: one machine
// per validation path (single-type in place, general subset tracking),
// with each machine's root label for fragments spliced under a kernel
// root.
type feederOracle struct {
	machines []*Machine
	kernels  []string
}

func newFeederOracle(tb testing.TB) feederOracle {
	return feederOracle{
		machines: []*Machine{
			Compile(eurostatEDTD(tb, schema.KindNRE)),
			Compile(generalEDTD(tb, schema.KindNRE)),
		},
		kernels: []string{"eurostat", "s"},
	}
}

// fuzzSplit is the chunk split a fuzz seed chooses: the seed's low two
// bits pick one to four chunk sizes, and each next nibble one size of 1
// to 9 bytes; feedChunks cycles them. Reading the bits directly, not
// seeding a generator, lets the fuzzer steer the split.
func fuzzSplit(seed int64) []int {
	u := uint64(seed)
	sizes := make([]int, 1+u&3)
	for i := range sizes {
		sizes[i] = 1 + int(u>>(2+4*i)&15)%9
	}
	return sizes
}

// check feeds src whole and cut at each of splits, and requires:
//   - whenever encoding/xml parses the input into a tree, the Feeder's
//     verdict equals Machine.ValidateTree on that tree;
//   - every split gives the same verdict as the whole input, with
//     byte-identical error text;
//   - every split gives a schema-free Feeder the same event stream —
//     starts with label and symbol, text runs, ends — and error text as
//     feeding it whole, which pins the in-chunk tag path (long chunks)
//     against the byte machine (tags cut by chunk ends);
//   - whenever encoding/xml accepts the input, so does that Feeder, with
//     the decoder's start/end sequence;
//   - a runner validated in place gives the verdict and error text of
//     the same runner behind the Handler path, whole and at every split,
//     for the input as a document and as a fragment spliced under an
//     open kernel root;
//   - malformed input fails with an error, never a panic.
func (o feederOracle) check(t testing.TB, src []byte, splits ...[]int) {
	t.Helper()
	events, eventsErr := feedLog(src, nil)
	for _, split := range splits {
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
	whole := append([][]int{nil}, splits...)
	for k, m := range o.machines {
		checkInPlace(t, m, src, "", whole...)
		checkInPlace(t, m, src, o.kernels[k], whole...)
		verdict := feedChunks(m.NewFeeder(), src, nil)
		for _, split := range splits {
			got := feedChunks(m.NewFeeder(), src, split)
			if (got == nil) != (verdict == nil) || (got != nil && got.Error() != verdict.Error()) {
				t.Fatalf("split %v on %q: %v, whole document: %v", split, src, got, verdict)
			}
		}
		if oerr != nil {
			continue
		}
		if want := m.ValidateTree(tree); (want == nil) != (verdict == nil) {
			t.Fatalf("feeder on %q: %v; encoding/xml tree %s validates to %v",
				src, verdict, tree, want)
		}
	}
}

// FuzzFeeder is the push parser's differential fuzz target: one exec
// feeds its input whole and at one fuzz-chosen split, under every check
// of feederOracle.check. The byte-at-a-time and many-split legs run over
// every seed and checked-in corpus entry in TestFeederCorpusSplits, so
// a fuzz exec stays short and the CI run spends its time fuzzing.
func FuzzFeeder(f *testing.F) {
	for _, s := range feederSeeds {
		f.Add([]byte(s), int64(len(s)))
	}
	o := newFeederOracle(f)
	f.Fuzz(func(t *testing.T, src []byte, seed int64) {
		if len(src) > 1<<12 {
			return // small splits of every input: keep each run short
		}
		o.check(t, src, fuzzSplit(seed))
	})
}

// TestFeederCorpusSplits runs FuzzFeeder's checks over every seed and
// every checked-in corpus entry with the legs a fuzz exec leaves out:
// one byte at a time, and the seed's split beside eight more random
// ones.
func TestFeederCorpusSplits(t *testing.T) {
	type entry struct {
		name string
		src  []byte
		seed int64
	}
	var corpus []entry
	for i, s := range feederSeeds {
		corpus = append(corpus, entry{fmt.Sprintf("seed#%d", i), []byte(s), int64(len(s))})
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFeeder")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, seed, err := readFeederCorpus(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, entry{file.Name(), src, seed})
	}
	o := newFeederOracle(t)
	for _, e := range corpus {
		t.Run(e.name, func(t *testing.T) {
			splits := [][]int{{1}, fuzzSplit(e.seed)}
			r := rand.New(rand.NewSource(e.seed))
			for range 8 {
				splits = append(splits, randomSizes(r, 9))
			}
			o.check(t, e.src, splits...)
		})
	}
}

// readFeederCorpus reads one FuzzFeeder corpus file, in the "go test
// fuzz v1" encoding: a []byte line and an int64 line.
func readFeederCorpus(path string) ([]byte, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasPrefix(lines[2], "int64(") {
		return nil, 0, fmt.Errorf("%s: not a FuzzFeeder corpus entry ([]byte, int64)", path)
	}
	src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	seed, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[2], "int64("), ")"), 0, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	return []byte(src), seed, nil
}
