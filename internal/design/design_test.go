package design

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"dxml/internal/p2p"
	"dxml/internal/xmltree"
)

func load(t *testing.T, name string) *Design {
	t.Helper()
	src, err := os.ReadFile("../../cmd/dxml/testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigestGolden pins the session-hello digest of the testdata designs
// of a dtd and an edtd class: a join and a serve of different builds
// pair only while these bytes hold. The design's digest is the digest
// of the network it builds.
func TestDigestGolden(t *testing.T) {
	for _, c := range []struct{ file, hex string }{
		{"eurostat.design", "8ba9db3292739135430043a9bb2fb087ddae52771e530caa068013b609ec72b2"},
		{"tauprimeprime.design", "bc66cd59efeea90922eef7d6799a4c872cad48f5ef4331e27767558d2b70f1b3"},
	} {
		d := load(t, c.file)
		got, err := d.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("%s: digest %x, want %s", c.file, got, c.hex)
		}
		n, err := d.Network(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(n.Digest(), got) {
			t.Errorf("%s: Network(nil).Digest() %x != Digest() %x", c.file, n.Digest(), got)
		}
	}
}

// TestNetworkDocs: a design builds federations on any subset of its
// docking points, in kernel order, each peer typed by its own block;
// an unknown docking point is refused; a nil docs needs no typing and
// any other docs does.
func TestNetworkDocs(t *testing.T) {
	d := load(t, "eurostat.design")
	typing, err := d.Typing()
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Network(map[string]*xmltree.Tree{
		"f3": xmltree.MustParse("root4"),
		"f1": xmltree.MustParse("root2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Peers) != 2 || n.Peers["f1"].Type != typing[1] || n.Peers["f3"].Type != typing[3] {
		t.Errorf("peers %v: want f1 and f3 typed by their blocks", n.Peers)
	}
	_, global, _ := d.Type()
	if n.GlobalType != global || n.Kernel != d.Kernel() {
		t.Error("network does not run on the design's kernel and type")
	}
	_, err = d.Network(map[string]*xmltree.Tree{"f9": xmltree.MustParse("r")})
	if err == nil || !strings.Contains(err.Error(), "design has no docking point f9") {
		t.Errorf("unknown docking point: %v", err)
	}

	untyped := load(t, "tauprimeprime.design")
	if _, err := untyped.Network(nil); err != nil {
		t.Errorf("kernel peer of an untyped design: %v", err)
	}
	if _, err := untyped.Network(map[string]*xmltree.Tree{}); err == nil || err.Error() != "no typing block for f1" {
		t.Errorf("hosting network of an untyped design: %v", err)
	}
}

// TestParsedOnce: the type and the typing are parsed once per design,
// however many callers ask and from how many goroutines, so every
// federation of a design shares one global type and one typing. The
// networks compile them concurrently, which the race detector checks on
// a DTD design and on a general EDTD (the subset-tracking compiler).
func TestParsedOnce(t *testing.T) {
	for _, c := range []struct {
		file string
		docs map[string]*xmltree.Tree
	}{
		{"eurostat.design", map[string]*xmltree.Tree{"f0": xmltree.MustParse("root1")}},
		{"tauprimeprime.design", nil},
	} {
		d := load(t, c.file)
		nets := make([]*p2p.Network, 8)
		var wg sync.WaitGroup
		for i := range nets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n, err := d.Network(c.docs)
				if err != nil {
					t.Error(err)
					return
				}
				n.GlobalMachine()
				for _, p := range n.Peers {
					p.Machine()
				}
				nets[i] = n
			}(i)
		}
		wg.Wait()
		for _, n := range nets {
			if n == nil || n.GlobalType != nets[0].GlobalType ||
				(c.docs != nil && n.Peers["f0"].Type != nets[0].Peers["f0"].Type) {
				t.Fatalf("%s: two networks of one design parsed the type or the typing apart", c.file)
			}
		}
	}
}

// TestParseErrors: Parse checks the file's structure.
func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",                                   // no type
		"class word\ntype a b",               // no kernelstring
		"kernel s(f1)\ntype:\nroot s",        // unterminated block
		"kind zz\nkernel s(f1)\ntype s -> a", // bad kind
		"garbage line",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestLazyErrors: the type and the typing are checked at first use, the
// type first when both are needed; word designs refuse tree operations
// with ErrWordClass.
func TestLazyErrors(t *testing.T) {
	broken := mustParse(t, "kernel s(f1)\ntype:\nroot s\ns -> (\nend\ntyping f1:\nroot r\nr -> a*\nend\n")
	if _, err := broken.Typing(); err != nil {
		t.Errorf("a broken type fails the typing: %v", err)
	}
	if _, err := broken.Network(map[string]*xmltree.Tree{}); err == nil || strings.Contains(err.Error(), "typing") {
		t.Errorf("Network should report the type's error first, got %v", err)
	}
	if _, _, err := mustParse(t, "class sdtd2\nkernel s(f1)\ntype s -> a").Type(); err == nil || err.Error() != `unknown class "sdtd2"` {
		t.Errorf("unknown class: %v", err)
	}

	word := load(t, "example3.design")
	if _, _, err := word.Type(); !errors.Is(err, ErrWordClass) {
		t.Errorf("word Type: %v", err)
	}
	if _, err := word.Typing(); !errors.Is(err, ErrWordClass) {
		t.Errorf("word Typing: %v", err)
	}
	if _, err := word.Network(nil); !errors.Is(err, ErrWordClass) {
		t.Errorf("word Network: %v", err)
	}
	if _, err := word.Digest(); !errors.Is(err, ErrWordClass) {
		t.Errorf("word Digest: %v", err)
	}
	if wt, err := word.WordTyping(); err != nil || len(wt) != 2 {
		t.Errorf("word typing: %v, %v", wt, err)
	}
}

func mustParse(t *testing.T, src string) *Design {
	t.Helper()
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
