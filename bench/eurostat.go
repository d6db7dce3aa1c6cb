package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dxml"
)

// The federation workloads all use the paper's running example
// (Figures 1-4): the Eurostat DTD over a kernel of docking points, each
// typed by Figure 4's perfect typing as a design file spells it out.

const eurostatDTD = `
<!ELEMENT eurostat (averages, nationalIndex*)>
<!ELEMENT averages (Good, index+)+>
<!ELEMENT nationalIndex (country, Good, (index | value, year))>
<!ELEMENT index (value, year)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT Good (#PCDATA)>
<!ELEMENT value (#PCDATA)>
<!ELEMENT year (#PCDATA)>`

const entryRules = `nationalIndex -> country, Good, (index | value, year)
index -> value, year`

// design is one parsed federation design: kernel, global type, and the
// local type of each docking point in kernel order.
type design struct {
	kernel *dxml.Kernel
	global *dxml.EDTD
	local  []*dxml.EDTD
}

// parseDesign parses the Eurostat design over a kernel. With averages
// set, the first docking point is the EU-averages provider (it may
// contribute averages and entries); every other docking point is a
// national bureau contributing entries only.
func parseDesign(kernel string, averages bool) (*design, error) {
	k, err := dxml.ParseKernel(kernel)
	if err != nil {
		return nil, err
	}
	g, err := dxml.ParseW3CDTD(dxml.KindNRE, eurostatDTD)
	if err != nil {
		return nil, err
	}
	d := &design{kernel: k, global: g.ToEDTD()}
	for i := range k.Funcs() {
		root := fmt.Sprintf("root%d", i+1)
		rules := fmt.Sprintf("root %s\n%s -> nationalIndex*\n%s", root, root, entryRules)
		if averages && i == 0 {
			rules = fmt.Sprintf("root %s\n%s -> averages, nationalIndex*\naverages -> (Good, index+)+\n%s", root, root, entryRules)
		}
		t, err := dxml.ParseDTD(dxml.KindNRE, rules)
		if err != nil {
			return nil, err
		}
		d.local = append(d.local, t.ToEDTD())
	}
	return d, nil
}

// network builds the federation whose docking points hold the given
// fragment contents (the children of each fragment's root).
func (d *design) network(frags [][]*dxml.Tree) (*dxml.Network, error) {
	n := dxml.NewNetwork(d.kernel, d.global)
	for i, fn := range d.kernel.Funcs() {
		doc := &dxml.Tree{Label: d.local[i].Starts[0], Children: frags[i]}
		if err := n.AddPeer(fn, doc, d.local[i]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// kernelSource is the Eurostat kernel with n docking points numbered
// from first: distinct numbering gives distinct design digests.
func kernelSource(first, n int) string {
	fns := make([]string, n)
	for i := range fns {
		fns[i] = fmt.Sprintf("f%d", first+i)
	}
	return "eurostat(" + strings.Join(fns, " ") + ")"
}

// addrsFor maps every docking point of a kernel to one host address.
func addrsFor(k *dxml.Kernel, addr string) map[string]string {
	out := map[string]string{}
	for _, fn := range k.Funcs() {
		out[fn] = addr
	}
	return out
}

func leaf(label string) *dxml.Tree { return &dxml.Tree{Label: label} }

func index() *dxml.Tree {
	return &dxml.Tree{Label: "index", Children: []*dxml.Tree{leaf("value"), leaf("year")}}
}

// entry is one national index: format A carries an index element,
// format B a bare value and year.
func entry(formatA bool) *dxml.Tree {
	ni := &dxml.Tree{Label: "nationalIndex", Children: []*dxml.Tree{leaf("country"), leaf("Good")}}
	if formatA {
		ni.Children = append(ni.Children, index())
	} else {
		ni.Children = append(ni.Children, leaf("value"), leaf("year"))
	}
	return ni
}

// badEntry is an entry every type here rejects: it has no value.
func badEntry() *dxml.Tree {
	return &dxml.Tree{Label: "nationalIndex", Children: []*dxml.Tree{leaf("country")}}
}

// entries returns n fresh entries in seeded order, exactly n/2 of them
// in format A, so a fragment's byte size does not depend on the seed.
func entries(r *rand.Rand, n int) []*dxml.Tree {
	out := make([]*dxml.Tree, n)
	for i := range out {
		out[i] = entry(i < n/2)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// averages is the EU-averages fragment content: goods Good elements,
// each followed by two indexes.
func averages(goods int) []*dxml.Tree {
	av := &dxml.Tree{Label: "averages"}
	for g := 0; g < goods; g++ {
		av.Children = append(av.Children, leaf("Good"), index(), index())
	}
	return []*dxml.Tree{av}
}

// scaled shrinks an input size for smoke tests, keeping it at least 1.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }
