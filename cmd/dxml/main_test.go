package main

import (
	"os"
	"strings"
	"testing"

	"dxml"
)

func load(t *testing.T, name string) *dxml.Design {
	t.Helper()
	src, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	df, err := dxml.ParseDesign(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestEurostatDesignFile(t *testing.T) {
	df := load(t, "eurostat.design")
	out, err := Run(df, "exists-perfect", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "perfect typing exists") || !strings.Contains(out, "nationalIndex*") {
		t.Errorf("unexpected output:\n%s", out)
	}
	for _, problem := range []string{"loc", "ml", "perf"} {
		out, err = Run(df, problem, "", false)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "true") {
			t.Errorf("%s should verify Figure 4's typing, got %q", problem, out)
		}
	}
	out, err = Run(df, "cons", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cons[nRE-DTD]: yes") {
		t.Errorf("cons output:\n%s", out)
	}
	out, err = Run(df, "validate",
		"eurostat(averages(Good index(value year)) nationalIndex(country Good value year))", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "valid") || strings.Contains(out, "invalid") {
		t.Errorf("validate output: %q", out)
	}
	out, _ = Run(df, "validate", "eurostat(nationalIndex(country))", false)
	if !strings.Contains(out, "invalid") {
		t.Errorf("validate should reject, got %q", out)
	}
}

// TestValidateStreaming exercises the streaming validate path: XML via
// Run (string) and via RunValidateStream (reader, the stdin path).
func TestValidateStreaming(t *testing.T) {
	df := load(t, "eurostat.design")
	xmlDoc := `<eurostat><averages><Good/><index><value/><year/></index></averages>` +
		`<nationalIndex><country/><Good/><value/><year/></nationalIndex></eurostat>`
	out, err := Run(df, "validate", xmlDoc, false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "invalid") {
		t.Errorf("valid XML document rejected: %q", out)
	}
	out, err = RunValidateStream(df, strings.NewReader(xmlDoc), 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "invalid") {
		t.Errorf("streamed document rejected: %q", out)
	}
	out, err = RunValidateStream(df, strings.NewReader("<eurostat><zz/></eurostat>"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "invalid") {
		t.Errorf("invalid streamed document accepted: %q", out)
	}
	out, err = RunValidateStream(df, strings.NewReader(""), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "invalid") {
		t.Errorf("empty stream should be invalid, got %q", out)
	}
}

func TestExample3DesignFile(t *testing.T) {
	df := load(t, "example3.design")
	out, err := Run(df, "exists-perfect", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "perfect typing exists") {
		t.Errorf("output:\n%s", out)
	}
	out, err = Run(df, "perf", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "perfect: true") {
		t.Errorf("output: %q", out)
	}
}

func TestTauPrimePrimeDesignFile(t *testing.T) {
	df := load(t, "tauprimeprime.design")
	out, err := Run(df, "exists-perfect", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no perfect typing") {
		t.Errorf("output:\n%s", out)
	}
	out, err = Run(df, "exists-ml", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 maximal local typing(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestWordProblemsViaCLI(t *testing.T) {
	df := load(t, "example3.design")
	for _, c := range []struct {
		problem, want string
	}{
		{"exists-local", "local typing exists"},
		{"exists-ml", "1 maximal local typing(s)"},
		{"loc", "local: true"},
		{"ml", "maximal local: true"},
		{"perf", "perfect: true"},
	} {
		out, err := Run(df, c.problem, "", false)
		if err != nil {
			t.Fatalf("%s: %v", c.problem, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output %q does not contain %q", c.problem, out, c.want)
		}
	}
	if _, err := Run(df, "nonsense", "", false); err == nil {
		t.Error("unknown problem should fail")
	}
}

func TestQuasiPerfectViaCLI(t *testing.T) {
	df, err := dxml.ParseDesign(`
class word
kernelstring a f1
type a b* | d
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(df, "quasi-perfect", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "quasi-perfect typing exists") ||
		!strings.Contains(out, "not local") {
		t.Errorf("output: %q", out)
	}
}

func TestWordNoLocalViaCLI(t *testing.T) {
	df, err := dxml.ParseDesign(`
class word
kernelstring f1 f2
type a b | b a
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(df, "exists-local", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no local typing") {
		t.Errorf("output: %q", out)
	}
	out, err = Run(df, "exists-ml", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no maximal local typing") {
		t.Errorf("output: %q", out)
	}
}

func TestSDTDClassViaCLI(t *testing.T) {
	df, err := dxml.ParseDesign(`
class sdtd
kind nRE
kernel s(a(f1) b(a(f2)))
type:
  root s
  s -> a1, b1
  a1 : a -> x*
  b1 : b -> a2
  a2 : a -> y?
end
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(df, "exists-perfect", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "perfect typing exists") {
		t.Errorf("output: %q", out)
	}
}

// TestValidateDistributedCLI runs both p2p protocols from the design
// file's typing blocks and checks verdicts and the -stats traffic report,
// including bytes saved by mid-transfer rejection.
func TestValidateDistributedCLI(t *testing.T) {
	df := load(t, "eurostat.design")
	valid := []string{
		"root1(averages(Good index(value year)))",
		"root2(nationalIndex(country Good value year))",
		"root3(nationalIndex(country Good index(value year)))",
		"root4",
	}
	docs := make([]*dxml.Tree, len(valid))
	for i, src := range valid {
		docs[i] = dxml.MustParseTree(src)
	}
	out, err := RunValidateDistributed(df, docs, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: valid") || !strings.Contains(out, "centralized: valid") {
		t.Errorf("valid federation output:\n%s", out)
	}
	if !strings.Contains(out, "messages") || !strings.Contains(out, "bytes") {
		t.Errorf("-stats output missing traffic report:\n%s", out)
	}
	if strings.Contains(out, "saved") {
		t.Errorf("valid federation should save nothing:\n%s", out)
	}

	// An invalid document at f1 with a fat f3: the centralized kernel
	// peer rejects mid-transfer and never pulls the rest.
	fat := dxml.MustParseTree("root4")
	for i := 0; i < 200; i++ {
		fat.Children = append(fat.Children,
			dxml.MustParseTree("nationalIndex(country Good value year)"))
	}
	bad := []*dxml.Tree{
		docs[0],
		dxml.MustParseTree("root2(nationalIndex(country))"),
		docs[2],
		fat,
	}
	out, err = RunValidateDistributed(df, bad, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "distributed: invalid") || !strings.Contains(out, "centralized: invalid") {
		t.Errorf("invalid federation output:\n%s", out)
	}
	if !strings.Contains(out, "saved by mid-transfer rejection") {
		t.Errorf("expected bytes saved in stats:\n%s", out)
	}

	// Wrong document count is a usage error.
	if _, err := RunValidateDistributed(df, docs[:2], 0, false); err == nil {
		t.Error("mismatched document count should fail")
	}
}
