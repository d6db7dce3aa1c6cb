package stream

import (
	"fmt"

	"dxml/internal/axml"
	"dxml/internal/xmltree"
)

// StreamKernel feeds h the events of the kernel document's extension
// extT(t1,…,tn) without materializing it: element nodes of the kernel
// stream as themselves, and at each docking point fi the walk pauses and
// hands control to fragment, which must inject the events of the forest
// replacing fi (typically via StreamXMLInner over a received fragment, or
// StreamTreeInner over a local one). This is how the kernel
// peer validates the whole distributed document in one pass, with memory
// proportional to its depth, never calling Kernel.Extend.
func StreamKernel(k *axml.Kernel, h Handler, fragment func(fn string, h Handler) error) error {
	var rec func(n *xmltree.Tree) error
	rec = func(n *xmltree.Tree) error {
		if k.IsFunc(n.Label) {
			if err := fragment(n.Label, h); err != nil {
				return fmt.Errorf("at docking point %s: %w", n.Label, err)
			}
			return nil
		}
		if err := startElement(h, n.Label); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return h.EndElement()
	}
	return rec(k.Tree())
}
