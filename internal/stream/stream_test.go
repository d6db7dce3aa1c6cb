package stream

import (
	"strings"
	"sync"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/schema"
	"dxml/internal/xmltree"
)

func eurostatEDTD(t testing.TB, kind schema.Kind) *schema.EDTD {
	t.Helper()
	d, err := schema.ParseDTD(kind, `
		root eurostat
		eurostat -> averages, nationalIndex*
		averages -> (Good, index+)+
		nationalIndex -> country, Good, (index | value, year)
		index -> value, year`)
	if err != nil {
		t.Fatal(err)
	}
	return d.ToEDTD()
}

// generalEDTD is the classic non-single-type language
// {a(b) a(b), a(c) a(c)} under root s.
func generalEDTD(t testing.TB, kind schema.Kind) *schema.EDTD {
	t.Helper()
	e, err := schema.ParseEDTD(kind, `
		root s
		s -> a1, a1 | a2, a2
		a1 : a -> b
		a2 : a -> c`)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleTypeVerdicts(t *testing.T) {
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	if !m.SingleType() {
		t.Fatal("eurostat DTD should take the single-type fast path")
	}
	cases := []struct {
		doc   string
		valid bool
	}{
		{"eurostat(averages(Good index(value year)))", true},
		{"eurostat(averages(Good index(value year)) nationalIndex(country Good value year))", true},
		{"eurostat(averages(Good index(value year)) nationalIndex(country Good index(value year)))", true},
		{"eurostat(nationalIndex(country Good value year))", false}, // missing averages
		{"eurostat(averages(Good))", false},                         // index+ unsatisfied
		{"eurostat(averages(Good index(value)))", false},            // index missing year
		{"averages(Good index(value year))", false},                 // wrong root
		{"eurostat(averages(Good index(value year)) zz)", false},    // unknown child
	}
	for _, c := range cases {
		tree := xmltree.MustParse(c.doc)
		err := m.ValidateTree(tree)
		if (err == nil) != c.valid {
			t.Errorf("ValidateTree(%s): got %v, want valid=%v", c.doc, err, c.valid)
		}
		xerr := m.ValidateReader(strings.NewReader(tree.XMLString()))
		if (xerr == nil) != c.valid {
			t.Errorf("ValidateReader(%s): got %v, want valid=%v", c.doc, xerr, c.valid)
		}
	}
}

func TestGeneralEDTDVerdicts(t *testing.T) {
	m := Compile(generalEDTD(t, schema.KindNRE))
	if m.SingleType() {
		t.Fatal("the a1/a2 EDTD is not single-type")
	}
	cases := []struct {
		doc   string
		valid bool
	}{
		{"s(a(b) a(b))", true},
		{"s(a(c) a(c))", true},
		{"s(a(b) a(c))", false},
		{"s(a(b))", false},
		{"s(a(b) a(b) a(b))", false},
		{"s(a(d) a(d))", false},
		{"s", false},
	}
	for _, c := range cases {
		tree := xmltree.MustParse(c.doc)
		err := m.ValidateTree(tree)
		if (err == nil) != c.valid {
			t.Errorf("ValidateTree(%s): got %v, want valid=%v", c.doc, err, c.valid)
		}
		if want := generalEDTD(t, schema.KindNRE).Validate(tree) == nil; want != c.valid {
			t.Fatalf("fixture disagrees with EDTD.Validate on %s", c.doc)
		}
	}
}

func TestRunnerEventDiscipline(t *testing.T) {
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	r := m.NewRunner()
	defer r.Release()
	if err := r.Finish(); err == nil {
		t.Error("empty document should fail Finish")
	}

	r2 := m.NewRunner()
	defer r2.Release()
	if err := r2.EndElement(); err == nil {
		t.Error("unbalanced end element should fail")
	}

	r3 := m.NewRunner()
	defer r3.Release()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(startElement(r3, "eurostat"))
	must(r3.Text())
	must(startElement(r3, "averages"))
	must(startElement(r3, "Good"))
	must(r3.EndElement())
	must(startElement(r3, "index"))
	must(startElement(r3, "value"))
	must(r3.EndElement())
	must(startElement(r3, "year"))
	must(r3.EndElement())
	must(r3.EndElement())
	must(r3.EndElement())
	if r3.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", r3.Depth())
	}
	if err := r3.Finish(); err == nil {
		t.Error("unterminated document should fail Finish")
	}
	must(r3.EndElement())
	if err := r3.Finish(); err != nil {
		t.Errorf("complete valid document rejected: %v", err)
	}
	if err := startElement(r3, "eurostat"); err == nil {
		t.Error("second root should fail")
	}
}

func TestStreamXMLErrors(t *testing.T) {
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	for _, src := range []string{
		"",
		"<eurostat>",
		"<a></b>",
		"<a/><b/>",
	} {
		if err := m.ValidateReader(strings.NewReader(src)); err == nil {
			t.Errorf("ValidateReader(%q) should fail", src)
		}
	}
	// Text, attributes, comments and PIs are structurally irrelevant.
	src := `<?xml version="1.0"?>
	<eurostat note="x"><!-- c --><averages><Good>g</Good><index><value>1</value><year>2009</year></index></averages></eurostat>`
	if err := m.ValidateReader(strings.NewReader(src)); err != nil {
		t.Errorf("decorated document rejected: %v", err)
	}
}

func TestStreamKernelMatchesExtend(t *testing.T) {
	e := eurostatEDTD(t, schema.KindNRE)
	m := Compile(e)
	kernel := axml.MustParseKernel("eurostat(f1 f2)")
	frags := map[string]*xmltree.Tree{
		"f1": xmltree.MustParse("r1(averages(Good index(value year)))"),
		"f2": xmltree.MustParse("r2(nationalIndex(country Good value year) nationalIndex(country Good index(value year)))"),
	}
	bad := map[string]*xmltree.Tree{
		"f1": frags["f1"],
		"f2": xmltree.MustParse("r2(nationalIndex(country))"),
	}
	for _, ext := range []map[string]*xmltree.Tree{frags, bad} {
		r := m.NewRunner()
		err := StreamKernel(kernel, r, func(fn string, h Handler) error {
			return StreamTreeInner(ext[fn], h)
		})
		if err == nil {
			err = r.Finish()
		}
		r.Release()
		doc := kernel.MustExtend(ext)
		want := e.Validate(doc)
		if (err == nil) != (want == nil) {
			t.Errorf("stream kernel verdict %v, Extend+Validate %v", err, want)
		}
	}
}

func TestStreamXMLInner(t *testing.T) {
	m := Compile(eurostatEDTD(t, schema.KindNRE))
	kernel := axml.MustParseKernel("eurostat(f1)")
	frag := xmltree.MustParse("r1(averages(Good index(value year)))").XMLString()
	r := m.NewRunner()
	defer r.Release()
	err := StreamKernel(kernel, r, func(fn string, h Handler) error {
		return StreamXMLInner(strings.NewReader(frag), h)
	})
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		t.Errorf("streamed fragment federation rejected: %v", err)
	}
}

// TestConcurrentRunners exercises the sync.Pool path under the race
// detector: many goroutines validate through one shared machine.
func TestConcurrentRunners(t *testing.T) {
	for _, e := range []*schema.EDTD{eurostatEDTD(t, schema.KindNRE), generalEDTD(t, schema.KindNRE)} {
		m := Compile(e)
		valid := xmltree.MustParse("eurostat(averages(Good index(value year)))")
		invalid := xmltree.MustParse("eurostat(zz)")
		if !m.SingleType() {
			valid = xmltree.MustParse("s(a(b) a(b))")
			invalid = xmltree.MustParse("s(a(b) a(c))")
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := m.ValidateTree(valid); err != nil {
						t.Errorf("valid doc rejected: %v", err)
						return
					}
					if err := m.ValidateTree(invalid); err == nil {
						t.Error("invalid doc accepted")
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
