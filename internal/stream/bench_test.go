package stream

import (
	"fmt"
	"strings"
	"testing"

	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

// BenchmarkGeneralEDTDPath exercises the subset-tracking slow path (the
// single-type fast path is covered by the root-level scaling benchmarks).
func BenchmarkGeneralEDTDPath(b *testing.B) {
	e, err := schema.ParseEDTD(schema.KindNRE, `
		root s
		s -> a1+ | a2+
		a1 : a -> b*
		a2 : a -> c*`)
	if err != nil {
		b.Fatal(err)
	}
	m := Compile(e)
	if m.SingleType() {
		b.Fatal("fixture should be general")
	}
	doc := xmltree.MustParse("s")
	for i := 0; i < 200; i++ {
		doc.Children = append(doc.Children, xmltree.MustParse("a(b b b)"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ValidateTree(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// eurostatDocBytes serializes a valid eurostat document of roughly the
// requested node count (each nationalIndex subtree adds 6 nodes).
func eurostatDocBytes(nodes int) []byte {
	doc := xmltree.MustParse("eurostat(averages(Good index(value year)))")
	ni := xmltree.MustParse("nationalIndex(country Good index(value year))")
	for n := doc.Size(); n < nodes; n += 6 {
		doc.Children = append(doc.Children, ni)
	}
	return []byte(doc.XMLString())
}

// BenchmarkFeederChunkSize sweeps the frame budget over a fixed ~10^5
// node document: the allocation profile must not depend on the chunk
// size, and throughput should be flat once chunks amortize the per-call
// overhead (the memory/throughput trade-off documented in the ROADMAP).
func BenchmarkFeederChunkSize(b *testing.B) {
	m := Compile(eurostatEDTD(b, schema.KindNRE))
	src := eurostatDocBytes(100_000)
	for _, chunk := range []int{16, 256, 4096, 65536, len(src)} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := m.NewFeeder()
				for off := 0; off < len(src); off += chunk {
					end := min(off+chunk, len(src))
					if err := f.Feed(src[off:end]); err != nil {
						b.Fatal(err)
					}
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeederScaling feeds documents of 10^4–10^6 nodes at a fixed
// 4 KiB budget: B/op staying flat as the document grows 100× is the
// O(chunk + depth) peer-memory bound of the acceptance criterion —
// nothing about the validator's footprint scales with fragment size.
func BenchmarkFeederScaling(b *testing.B) {
	m := Compile(eurostatEDTD(b, schema.KindNRE))
	for _, nodes := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", nodes), func(b *testing.B) {
			src := eurostatDocBytes(nodes)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := m.NewFeeder()
				for off := 0; off < len(src); off += 4096 {
					end := min(off+4096, len(src))
					if err := f.Feed(src[off:end]); err != nil {
						b.Fatal(err)
					}
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// feederShape is a Eurostat document of about 10^5 nodes, valid against
// the Eurostat design, in one of the markup shapes a resource peer may
// ship. Plain markup takes the in-chunk tag path on nearly every tag;
// the others send attributes, prefixes, comments and CDATA through the
// byte machine.
type feederShape struct {
	name string
	src  []byte
}

func feederShapes() []feederShape {
	shape := func(head, entry, tail string) []byte {
		return []byte(head + strings.Repeat(entry, 100_000/6) + tail)
	}
	return []feederShape{
		{"markup", eurostatDocBytes(100_000)},
		{"attributes", shape(
			`<eurostat lang="en" rev='3'><averages kind="eu"><Good id="g0" unit="EUR"/><index base="2005"><value scale="1"/><year of="ref"/></index></averages>`,
			`<nationalIndex country-code="LU" flag='x'><country iso="LU"/><Good id="g1" unit="EUR"/><index base="2005"><value scale="1" v="104.73"/><year y="2009"/></index></nationalIndex>`,
			`</eurostat>`)},
		{"text", shape(
			"<eurostat>\n<averages><Good>All items</Good><index><value>100.00</value><year>2005</year></index></averages>\n",
			"<nationalIndex>\n  <country>Luxembourg</country>\n  <Good>Consumer prices, all items</Good>\n  <index><value>104.73</value><year>2009</year></index>\n</nationalIndex>\n",
			"</eurostat>\n")},
		{"prefixed", shape(
			"<es:eurostat><es:averages><es:Good/><es:index><es:value/><es:year/></es:index></es:averages>",
			"<es:nationalIndex><es:country/><es:Good/><es:index><es:value/><es:year/></es:index></es:nationalIndex>",
			"</es:eurostat>")},
		{"comments-cdata", shape(
			"<eurostat><!-- averages --><averages><Good><![CDATA[all & every]]></Good><index><value/><year/></index></averages>",
			"<!-- bureau --><nationalIndex><country><![CDATA[L<U>]]></country><Good/><index><value><![CDATA[104.73]]></value><year/></index></nationalIndex>",
			"</eurostat>")},
	}
}

// BenchmarkFeederShapes feeds each of feederShapes at the 4 KiB frame
// budget through a validating Feeder.
func BenchmarkFeederShapes(b *testing.B) {
	m := Compile(eurostatEDTD(b, schema.KindNRE))
	for _, s := range feederShapes() {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(len(s.src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := m.NewFeeder()
				for off := 0; off < len(s.src); off += 4096 {
					if err := f.Feed(s.src[off:min(off+4096, len(s.src))]); err != nil {
						b.Fatal(err)
					}
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
