package p2p

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/core"
	"dxml/internal/gen"
	"dxml/internal/schema"
	"dxml/internal/stream"
	"dxml/internal/xmltree"
)

// eurostatSetup builds the Figure 1 federation: kernel with an averages
// provider and three country bureaus, typed by the Figure 4 perfect
// typing.
func eurostatSetup(t testing.TB) (*Network, core.Typing) {
	t.Helper()
	global := schema.MustParseW3CDTD(schema.KindNRE, `
		<!ELEMENT eurostat (averages, nationalIndex*)>
		<!ELEMENT averages (Good, index+)+>
		<!ELEMENT nationalIndex (country, Good, (index | value, year))>
		<!ELEMENT index (value, year)>
		<!ELEMENT country (#PCDATA)>
		<!ELEMENT Good (#PCDATA)>
		<!ELEMENT value (#PCDATA)>
		<!ELEMENT year (#PCDATA)>
	`)
	kernel := axml.MustParseKernel("eurostat(f0 f1 f2 f3)")
	design := &core.DTDDesign{Type: global, Kernel: kernel}
	typing, ok := design.ExistsPerfect()
	if !ok {
		t.Fatal("Figure 4 perfect typing should exist")
	}
	n := NewNetwork(kernel, global.ToEDTD())
	return n, typing
}

// countryDoc builds a valid national document with k indexes, wrapped
// under the local type's root.
func countryDoc(root string, k int, formatA bool) *xmltree.Tree {
	doc := xmltree.New(root)
	for i := 0; i < k; i++ {
		ni := xmltree.New("nationalIndex", xmltree.Leaf("country"), xmltree.Leaf("Good"))
		if formatA {
			ni.Children = append(ni.Children, xmltree.New("index", xmltree.Leaf("value"), xmltree.Leaf("year")))
		} else {
			ni.Children = append(ni.Children, xmltree.Leaf("value"), xmltree.Leaf("year"))
		}
		doc.Children = append(doc.Children, ni)
	}
	return doc
}

func averagesDoc(root string, goods int) *xmltree.Tree {
	av := xmltree.New("averages")
	for i := 0; i < goods; i++ {
		av.Children = append(av.Children,
			xmltree.Leaf("Good"),
			xmltree.New("index", xmltree.Leaf("value"), xmltree.Leaf("year")))
	}
	return xmltree.New(root, av)
}

func attachValidDocs(t testing.TB, n *Network, typing core.Typing, countrySizes []int) {
	t.Helper()
	funcs := n.Kernel.Funcs()
	for i, f := range funcs {
		root := typing[i].Starts[0]
		var doc *xmltree.Tree
		if i == 0 {
			doc = averagesDoc(root, 2)
		} else {
			doc = countryDoc(root, countrySizes[i-1], i%2 == 0)
		}
		doc.Label = root
		if err := typing[i].Validate(doc); err != nil {
			t.Fatalf("generated doc for %s invalid: %v", f, err)
		}
		if err := n.AddPeer(f, doc, typing[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistributedAgreesWithCentralizedOnValid(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{2, 3, 1})
	dist, err := n.ValidateDistributed()
	if err != nil {
		t.Fatal(err)
	}
	cent, err := n.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if !dist || !cent {
		t.Fatalf("valid federation rejected: dist=%v cent=%v", dist, cent)
	}
}

// TestSoundness: with a local typing, local-valid implies global-valid —
// and with an invalid local document, both protocols reject.
func TestSoundnessAndCompleteness(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{1, 1, 1})
	// Corrupt one country: an index missing its year.
	bad := xmltree.New(typing[2].Starts[0],
		xmltree.New("nationalIndex",
			xmltree.Leaf("country"), xmltree.Leaf("Good"),
			xmltree.New("index", xmltree.Leaf("value"))))
	n.Peers["f2"].Doc = bad
	dist, err := n.ValidateDistributed()
	if err != nil {
		t.Fatal(err)
	}
	cent, err := n.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if dist != cent {
		t.Fatalf("protocols disagree: dist=%v cent=%v", dist, cent)
	}
	if dist {
		t.Fatal("invalid document accepted")
	}
}

// TestProtocolAgreementRandom fuzzes documents (valid and mutated) and
// checks the two protocols always agree when the typing is local — the
// operational meaning of soundness + completeness.
func TestProtocolAgreementRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n, typing := eurostatSetup(t)
		attachValidDocs(t, n, typing, []int{r.Intn(3), r.Intn(3), r.Intn(3)})
		// Randomly mutate one peer's document.
		if r.Intn(2) == 0 {
			f := n.Kernel.Funcs()[r.Intn(4)]
			doc := n.Peers[f].Doc
			mutateTree(r, doc)
		}
		dist, err := n.ValidateDistributed()
		if err != nil {
			t.Fatal(err)
		}
		cent, err := n.ValidateCentralized()
		if err != nil {
			t.Fatal(err)
		}
		if dist != cent {
			mat, _ := n.Materialize()
			t.Fatalf("protocols disagree (dist=%v cent=%v) on %s", dist, cent, mat)
		}
	}
}

func mutateTree(r *rand.Rand, doc *xmltree.Tree) {
	// Collect nodes.
	var nodes []*xmltree.Tree
	doc.Walk(func(n *xmltree.Tree, _ []string) bool {
		nodes = append(nodes, n)
		return true
	})
	n := nodes[r.Intn(len(nodes))]
	switch r.Intn(3) {
	case 0: // drop a child
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
		}
	case 1: // duplicate a child
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children, n.Children[i].Clone())
		}
	default: // relabel a non-root node
		if n != doc {
			n.Label = "zz"
		}
	}
}

// TestTrafficAdvantage: distributed validation ships only verdicts;
// centralized ships full documents. This reproduces the communication
// asymmetry motivating local typings (Remark 4).
func TestTrafficAdvantage(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{50, 50, 50})
	if _, err := n.ValidateDistributed(); err != nil {
		t.Fatal(err)
	}
	_, distBytes := n.Stats.Snapshot()
	n2, typing2 := eurostatSetup(t)
	attachValidDocs(t, n2, typing2, []int{50, 50, 50})
	if _, err := n2.ValidateCentralized(); err != nil {
		t.Fatal(err)
	}
	_, centBytes := n2.Stats.Snapshot()
	if distBytes*10 > centBytes {
		t.Errorf("distributed traffic (%d B) should be ≪ centralized (%d B)", distBytes, centBytes)
	}
}

// TestNonLocalTypingBreaksAgreement: with a sound-but-incomplete typing,
// distributed validation can reject documents that are globally valid
// (false negatives) — completeness is exactly what rules this out.
func TestNonLocalTypingBreaksAgreement(t *testing.T) {
	global := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a | b")
	kernel := axml.MustParseKernel("s(f1)")
	// Sound but incomplete local type: only a.
	restrictive := schema.MustParseDTD(schema.KindNRE, "root r1\nr1 -> a").ToEDTD()
	n := NewNetwork(kernel, global.ToEDTD())
	doc := xmltree.MustParse("r1(b)")
	if err := n.AddPeer("f1", doc, restrictive); err != nil {
		t.Fatal(err)
	}
	dist, err := n.ValidateDistributed()
	if err != nil {
		t.Fatal(err)
	}
	cent, err := n.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if dist || !cent {
		t.Fatalf("expected a false negative: dist=%v cent=%v", dist, cent)
	}
}

// TestCollaborativeEditing: with a local typing, fragment edits are
// admitted/rejected identically by local and centralized validation —
// with a fraction of the traffic (the introduction's WebDAV scenario).
func TestCollaborativeEditing(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{2, 2, 2})
	root2 := typing[2].Starts[0]

	// A valid edit: INSEE switches one index to format B.
	edit := countryDoc(root2, 3, false)
	admitted, prev, err := n.UpdatePeer("f2", edit)
	if err != nil {
		t.Fatal(err)
	}
	if !admitted || prev == nil {
		t.Fatal("valid edit rejected")
	}

	// An invalid edit is rejected locally and leaves the doc untouched.
	bad := xmltree.MustParse(root2 + "(nationalIndex(country))")
	admitted, _, err = n.UpdatePeer("f2", bad)
	if err != nil {
		t.Fatal(err)
	}
	if admitted {
		t.Fatal("invalid edit admitted")
	}
	if n.Peers["f2"].Doc != edit {
		t.Fatal("rejected edit modified the document")
	}
	_, localBytes := n.Stats.Snapshot() // traffic of the two local edits

	// The federation stays globally valid after the admitted edit
	// (soundness).
	if ok, err := n.ValidateCentralized(); err != nil || !ok {
		t.Fatalf("edited federation invalid: %v %v", ok, err)
	}

	// Centralized agrees on both verdicts (but ships everything).
	n2, typing2 := eurostatSetup(t)
	attachValidDocs(t, n2, typing2, []int{2, 2, 2})
	admitted, err = n2.UpdatePeerCentralized("f2", countryDoc(typing2[2].Starts[0], 3, false))
	if err != nil || !admitted {
		t.Fatalf("centralized rejected a valid edit: %v %v", admitted, err)
	}
	admitted, err = n2.UpdatePeerCentralized("f2",
		xmltree.MustParse(typing2[2].Starts[0]+"(nationalIndex(country))"))
	if err != nil || admitted {
		t.Fatalf("centralized admitted an invalid edit: %v %v", admitted, err)
	}
	_, centBytes := n2.Stats.Snapshot()
	if localBytes*10 > centBytes {
		t.Errorf("local edits (%d B) should be ≪ centralized (%d B)", localBytes, centBytes)
	}
}

// TestSampledWorkloadFederation seeds peers with documents drawn from
// their own types by the gen sampler: by soundness, every sampled
// federation must validate under both protocols.
func TestSampledWorkloadFederation(t *testing.T) {
	n, typing := eurostatSetup(t)
	for round := 0; round < 10; round++ {
		for i, f := range n.Kernel.Funcs() {
			s, err := gen.New(typing[i], int64(round*10+i))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := s.Document()
			if err != nil {
				t.Fatal(err)
			}
			if err := n.AddPeer(f, doc, typing[i]); err != nil {
				t.Fatal(err)
			}
		}
		dist, err := n.ValidateDistributed()
		if err != nil {
			t.Fatal(err)
		}
		cent, err := n.ValidateCentralized()
		if err != nil {
			t.Fatal(err)
		}
		if !dist || !cent {
			mat, _ := n.Materialize()
			t.Fatalf("round %d: sampled federation rejected (dist=%v cent=%v): %s",
				round, dist, cent, mat)
		}
	}
}

// TestDistributedShortCircuit: an invalid peer fails the round without
// forcing every verdict onto the wire, and Stats stays consistent (every
// counted message is a delivered verdict of fixed size).
func TestDistributedShortCircuit(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{2000, 2000, 2000})
	n.Peers["f1"].Doc = xmltree.MustParse(typing[1].Starts[0] + "(nationalIndex(country))")
	ok, err := n.ValidateDistributed()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("invalid federation accepted")
	}
	msgs, bytes := n.Stats.Snapshot()
	if msgs > len(n.Kernel.Funcs()) {
		t.Errorf("short-circuited round delivered %d messages for %d peers", msgs, len(n.Kernel.Funcs()))
	}
	if msgs == 0 {
		t.Error("the failing verdict itself must be counted")
	}
	// Every distributed message is a fixed-size verdict frame, never a
	// document.
	if bytes > msgs*4 {
		t.Errorf("verdict round moved %d bytes in %d messages", bytes, msgs)
	}
}

// TestDistributedContextCancel: an externally canceled round reports the
// context error instead of a spurious "valid" verdict.
func TestDistributedContextCancel(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{1, 1, 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err := n.ValidateDistributedContext(ctx)
	if ok {
		t.Error("canceled round must not report valid")
	}
	if err == nil {
		t.Error("canceled round should surface the context error")
	}
}

// TestCentralizedNeverMaterializes: centralized validation agrees with
// Extend+Validate while accounting document bytes exactly once per
// message (the payload length, not a re-serialization).
func TestCentralizedWireAccounting(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{3, 1, 2})
	ok, err := n.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid federation rejected")
	}
	msgs, gotBytes := n.Stats.Snapshot()
	if msgs != len(n.Kernel.Funcs()) {
		t.Errorf("centralized round: %d messages, want %d", msgs, len(n.Kernel.Funcs()))
	}
	wantBytes := 0
	for f, p := range n.Peers {
		wantBytes += len(f) + 1 + len(p.Doc.XMLString())
	}
	if gotBytes != wantBytes {
		t.Errorf("centralized bytes = %d, want serialized payload total %d", gotBytes, wantBytes)
	}
}

func TestUpdatePeerUnknown(t *testing.T) {
	n, _ := eurostatSetup(t)
	if _, _, err := n.UpdatePeer("f9", xmltree.Leaf("x")); err == nil {
		t.Error("unknown peer accepted")
	}
	if _, err := n.UpdatePeerCentralized("f9", xmltree.Leaf("x")); err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestAddPeerErrors(t *testing.T) {
	global := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a")
	kernel := axml.MustParseKernel("s(f1)")
	n := NewNetwork(kernel, global.ToEDTD())
	if err := n.AddPeer("f9", xmltree.Leaf("r"), global.ToEDTD()); err == nil {
		t.Error("unknown docking point accepted")
	}
	if _, err := n.ValidateDistributed(); err == nil {
		t.Error("missing peer should fail")
	}
	if _, err := n.ValidateCentralized(); err == nil {
		t.Error("missing peer should fail")
	}
}

// TestChunkSizeInvariance is the acceptance criterion of the chunked
// wire: on a differential corpus of valid and mutated federations, the
// verdicts of both protocols and the Stats message counts are identical
// for chunk sizes {16 B, 4 KiB, ∞}. Only delivered bytes may differ, and
// only on rejected transfers (mid-transfer rejection), where smaller
// chunks save at least as many bytes as larger ones.
func TestChunkSizeInvariance(t *testing.T) {
	chunks := []int{16, 4096, Unchunked}
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		sizes := []int{r.Intn(4), r.Intn(4), r.Intn(4)}
		mutateAt := -1
		if trial%2 == 1 {
			mutateAt = r.Intn(4)
		}
		type obs struct {
			dist, cent           bool
			distMsgs, centMsgs   int
			centBytes, centSaved int
		}
		var got []obs
		for _, chunk := range chunks {
			n, typing := eurostatSetup(t)
			n.ChunkSize = chunk
			attachValidDocs(t, n, typing, sizes)
			if mutateAt >= 0 {
				// Same seed per chunk size => identical mutation.
				mr := rand.New(rand.NewSource(int64(trial)))
				mutateTree(mr, n.Peers[n.Kernel.Funcs()[mutateAt]].Doc)
			}
			dist, err := n.ValidateDistributed()
			if err != nil {
				t.Fatal(err)
			}
			distMsgs, _ := n.Stats.Snapshot()
			pre := n.Stats.Totals()
			cent, err := n.ValidateCentralized()
			if err != nil {
				t.Fatal(err)
			}
			tot := n.Stats.Totals()
			got = append(got, obs{
				dist: dist, cent: cent,
				distMsgs:  distMsgs,
				centMsgs:  tot.Messages - pre.Messages,
				centBytes: tot.Bytes - pre.Bytes,
				centSaved: tot.BytesSaved - pre.BytesSaved,
			})
		}
		base := got[0]
		for i, o := range got {
			if o.dist != base.dist || o.cent != base.cent {
				t.Fatalf("trial %d: verdicts vary with chunk size: %+v", trial, got)
			}
			if o.centMsgs != base.centMsgs {
				t.Fatalf("trial %d: centralized message counts vary with chunk size: %+v", trial, got)
			}
			// The distributed round ships only verdicts, so the chunk
			// knob cannot touch it; but its short-circuit makes the
			// count scheduling-dependent on invalid federations, so
			// exact equality is only required on valid ones.
			if o.dist && o.distMsgs != 4 {
				t.Fatalf("trial %d: valid distributed round delivered %d verdicts, want 4", trial, o.distMsgs)
			}
			if o.distMsgs < 1 || o.distMsgs > 4 {
				t.Fatalf("trial %d: distributed round delivered %d verdicts", trial, o.distMsgs)
			}
			if o.cent && (o.centBytes != base.centBytes || o.centSaved != 0) {
				t.Fatalf("trial %d: accepted transfer bytes vary with chunk size: %+v", trial, got)
			}
			if !o.cent && i > 0 && o.centBytes < got[i-1].centBytes {
				// Delivered bytes on a rejected transfer grow with the
				// chunk size (the failing frame rounds up to the budget).
				t.Fatalf("trial %d: larger chunk delivered fewer bytes: %+v", trial, got)
			}
		}
		if !base.cent {
			// Some chunk size must actually save bytes on rejection.
			if got[0].centSaved == 0 {
				t.Fatalf("trial %d: rejected federation saved no bytes at 16 B chunks: %+v", trial, got)
			}
		}
	}
}

// TestUpdatePeerCentralizedChunked checks the collaborative edit under
// chunking: verdict parity across chunk sizes and byte savings on the
// rejected edit.
func TestUpdatePeerCentralizedChunked(t *testing.T) {
	for _, chunk := range []int{16, 4096, Unchunked} {
		n, typing := eurostatSetup(t)
		n.ChunkSize = chunk
		attachValidDocs(t, n, typing, []int{2, 2, 2})
		root2 := typing[2].Starts[0]
		ok, err := n.UpdatePeerCentralized("f2", countryDoc(root2, 3, false))
		if err != nil || !ok {
			t.Fatalf("chunk %d: valid edit rejected: %v %v", chunk, ok, err)
		}
		ok, err = n.UpdatePeerCentralized("f2",
			xmltree.MustParse(root2+"(nationalIndex(country))"))
		if err != nil || ok {
			t.Fatalf("chunk %d: invalid edit admitted: %v %v", chunk, ok, err)
		}
	}
}

// TestCentralizedBoundedDelivery: with tiny chunks, rejecting an invalid
// first fragment must leave almost all of a huge later fragment
// unshipped — the Bytes delivered stay near the failure point while
// BytesSaved absorbs the rest.
func TestCentralizedBoundedDelivery(t *testing.T) {
	n, typing := eurostatSetup(t)
	n.ChunkSize = 64
	attachValidDocs(t, n, typing, []int{1, 1, 5000})
	// Corrupt the *first* peer so the kernel walk fails immediately.
	n.Peers["f0"].Doc = xmltree.MustParse(typing[0].Starts[0] + "(zz)")
	ok, err := n.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("invalid federation accepted")
	}
	tot := n.Stats.Totals()
	fatSize := n.Peers["f3"].Doc.XMLSize()
	if tot.Bytes >= fatSize/10 {
		t.Errorf("mid-transfer rejection delivered %d bytes; the 5000-entry fragment alone is %d", tot.Bytes, fatSize)
	}
	if tot.BytesSaved <= fatSize/2 {
		t.Errorf("BytesSaved = %d, expected most of the %d-byte fat fragment", tot.BytesSaved, fatSize)
	}
}

// countEvents is a stream.Handler that accepts and counts every event.
type countEvents struct{ n int }

func (c *countEvents) Resolve(string) stream.Sym             { return 0 }
func (c *countEvents) StartElement(string, stream.Sym) error { c.n++; return nil }
func (c *countEvents) Text() error                           { c.n++; return nil }
func (c *countEvents) EndElement() error                     { c.n++; return nil }

// TestCanceledValidationStopsOnEveryShape: a peer validation under a
// canceled context stops with ctx.Err() within 256 events on every
// document shape, whichever kind of event is the 256th. Documents whose
// start elements never land on a multiple of 256 (r(a(b)×10⁴) has
// 40,002 events) once validated to the end.
func TestCanceledValidationStopsOnEveryShape(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, child := range []string{"a(b)", "a(b c d)", "a"} {
		doc := xmltree.New("r")
		for i := 0; i < 10000; i++ {
			doc.Children = append(doc.Children, xmltree.MustParse(child))
		}
		inner := &countEvents{}
		h := &ctxHandler{ctx: ctx, h: inner}
		if err := stream.StreamTree(doc, h); !errors.Is(err, context.Canceled) {
			t.Errorf("r(%s×10⁴): StreamTree = %v, want %v", child, err, context.Canceled)
		}
		if h.n != 256 || inner.n != 256 {
			t.Errorf("r(%s×10⁴): stopped after event %d with %d forwarded, want 256", child, h.n, inner.n)
		}
	}
}
