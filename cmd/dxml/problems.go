package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"dxml"
)

func formatTyping(funcs []string, typing dxml.Typing) string {
	var b strings.Builder
	for i, f := range funcs {
		fmt.Fprintf(&b, "  %s: %s -> %s\n", f, typing[i].Starts[0],
			dxml.DisplayRegex(dxml.RootContent(typing[i])))
	}
	return b.String()
}

func formatWordTyping(funcs []string, typing dxml.WordTyping) string {
	var b strings.Builder
	for i, f := range funcs {
		fmt.Fprintf(&b, "  %s: %s\n", f, dxml.DisplayRegex(typing[i]))
	}
	return b.String()
}

// listTypings renders exists-ml's answer: every maximal local typing.
func listTypings[T any](ts []T, format func([]string, T) string, funcs []string) string {
	if len(ts) == 0 {
		return "no maximal local typing exists\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d maximal local typing(s):\n", len(ts))
	for _, t := range ts {
		b.WriteString(format(funcs, t) + "\n")
	}
	return b.String()
}

// Run decides the requested problem and renders the answer.
// allowTrivial admits {ε} as a resource type (the -allow-trivial flag).
func Run(d *dxml.Design, problem, doc string, allowTrivial bool) (string, error) {
	if d.Class() == "word" {
		return runWord(d, problem, allowTrivial)
	}
	switch problem {
	case "validate":
		return runValidate(d, doc)
	case "cons":
		return runCons(d)
	}
	return runTree(d, problem, allowTrivial)
}

func runWord(design *dxml.Design, problem string, allowTrivial bool) (string, error) {
	target, err := design.WordType()
	if err != nil {
		return "", err
	}
	d := dxml.NewWordDesign(target, design.KernelString())
	d.AllowTrivialTypes = allowTrivial
	funcs := design.Funcs()
	switch problem {
	case "exists-local":
		if t, ok := d.LocalTyping(); ok {
			return "local typing exists:\n" + formatWordTyping(funcs, t), nil
		}
		return "no local typing exists\n", nil
	case "exists-ml":
		return listTypings(d.MaximalLocalTypings(), formatWordTyping, funcs), nil
	case "exists-perfect":
		if t, ok := d.PerfectTyping(); ok {
			return "perfect typing exists:\n" + formatWordTyping(funcs, t), nil
		}
		return "no perfect typing exists\n", nil
	case "quasi-perfect":
		if t, ok := d.QuasiPerfectTyping(); ok {
			suffix := " (and local, hence perfect)"
			if !d.Local(t) {
				suffix = " (not local — Remark 2's fallback)"
			}
			return "quasi-perfect typing exists" + suffix + ":\n" + formatWordTyping(funcs, t), nil
		}
		return "no quasi-perfect typing exists\n", nil
	case "loc", "ml", "perf":
		typing, err := design.WordTyping()
		if err != nil {
			return "", err
		}
		switch problem {
		case "loc":
			return fmt.Sprintf("local: %v\n", d.Local(typing)), nil
		case "ml":
			ok, err := d.MaximalLocal(typing)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("maximal local: %v\n", ok), nil
		default:
			return fmt.Sprintf("perfect: %v\n", d.IsPerfect(typing)), nil
		}
	}
	return "", fmt.Errorf("unknown problem %q for class word", problem)
}

// verifier decides loc, ml and perf on a typing; every tree class's
// design does.
type verifier interface {
	IsLocal(dxml.Typing) (bool, error)
	IsMaximalLocal(dxml.Typing) (bool, error)
	IsPerfect(dxml.Typing) (bool, error)
}

// nodeDesign is what DTD and SDTD designs share: both reduce to one
// string design per kernel node.
type nodeDesign interface {
	ExistsLocal() (dxml.Typing, bool)
	ExistsPerfect() (dxml.Typing, bool)
	ExistsMaximalLocal() (dxml.Typing, bool)
	verifier
}

func runTree(design *dxml.Design, problem string, allowTrivial bool) (string, error) {
	dtd, edtd, err := design.Type()
	if err != nil {
		return "", err
	}
	kernel, funcs := design.Kernel(), design.Funcs()
	existsOut := func(t dxml.Typing, ok bool, what string) string {
		if !ok {
			return "no " + what + " typing exists\n"
		}
		return what + " typing exists:\n" + formatTyping(funcs, t)
	}

	var v verifier
	if design.Class() == "edtd" {
		d := &dxml.EDTDDesign{Type: edtd, Kernel: kernel, AllowTrivialTypes: allowTrivial}
		switch problem {
		case "exists-local":
			t, ok, err := d.ExistsLocal()
			if err != nil {
				return "", err
			}
			return existsOut(t, ok, "local"), nil
		case "exists-ml":
			ts, err := d.MaximalLocalTypings()
			if err != nil {
				return "", err
			}
			return listTypings(ts, formatTyping, funcs), nil
		case "exists-perfect":
			t, ok, err := d.ExistsPerfect()
			if err != nil {
				return "", err
			}
			return existsOut(t, ok, "perfect"), nil
		}
		v = d
	} else {
		var d nodeDesign = &dxml.DTDDesign{Type: dtd, Kernel: kernel, AllowTrivialTypes: allowTrivial}
		if design.Class() == "sdtd" {
			d = &dxml.SDTDDesign{Type: edtd, Kernel: kernel, AllowTrivialTypes: allowTrivial}
		}
		switch problem {
		case "exists-local":
			t, ok := d.ExistsLocal()
			return existsOut(t, ok, "local"), nil
		case "exists-ml":
			t, ok := d.ExistsMaximalLocal()
			return existsOut(t, ok, "maximal local"), nil
		case "exists-perfect":
			t, ok := d.ExistsPerfect()
			return existsOut(t, ok, "perfect"), nil
		}
		v = d
	}

	// loc, ml and perf decide the design file's typing.
	check := map[string]func(dxml.Typing) (bool, error){
		"loc": v.IsLocal, "ml": v.IsMaximalLocal, "perf": v.IsPerfect,
	}[problem]
	if check == nil {
		return "", fmt.Errorf("unknown problem %q for class %s", problem, design.Class())
	}
	typing, err := design.Typing()
	if err != nil {
		return "", err
	}
	ok, err := check(typing)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: %v\n", problem, ok), nil
}

func runCons(design *dxml.Design) (string, error) {
	typing, err := design.Typing()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	kernel, kind := design.Kernel(), design.Kind()
	e, err := dxml.ConsEDTD(kernel, typing, kind)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "cons[%s-EDTD]: yes (always); typeT has %d specialized names\n",
		kind, len(e.SpecializedNames()))
	sres, err := dxml.ConsSDTD(kernel, typing, kind)
	if err != nil {
		return "", err
	}
	if sres.Consistent {
		fmt.Fprintf(&b, "cons[%s-SDTD]: yes\n", kind)
	} else {
		fmt.Fprintf(&b, "cons[%s-SDTD]: no (%s)\n", kind, sres.Reason)
	}
	dres, err := dxml.ConsDTD(kernel, typing, kind)
	if err != nil {
		return "", err
	}
	if dres.Consistent {
		fmt.Fprintf(&b, "cons[%s-DTD]: yes; typeT:\n%s", kind, dres.DTD)
	} else {
		fmt.Fprintf(&b, "cons[%s-DTD]: no (%s)\n", kind, dres.Reason)
	}
	return b.String(), nil
}

func runValidate(d *dxml.Design, doc string) (string, error) {
	if strings.TrimSpace(doc) == "" {
		return "", fmt.Errorf("validate needs a document argument (or - for stdin)")
	}
	m, err := validateMachine(d)
	if err != nil {
		return "", err
	}
	// XML documents stream; the term syntax parses to a tree first and
	// streams its events through the same machine.
	if strings.HasPrefix(strings.TrimSpace(doc), "<") {
		return verdict(m.ValidateReader(strings.NewReader(doc))), nil
	}
	tree, err := dxml.ParseTree(strings.TrimSpace(doc))
	if err != nil {
		return "", err
	}
	return verdict(m.ValidateTree(tree)), nil
}

// RunValidateStream validates one XML document from r against the design
// file's type by feeding it to the push parser in chunks as they arrive:
// memory stays proportional to the chunk budget plus the document's
// depth, so arbitrarily large documents pipe through stdin. Used by
// `dxml -problem validate <design-file> -`; chunk <= 0 uses a default
// read budget.
func RunValidateStream(d *dxml.Design, r io.Reader, chunk int) (string, error) {
	m, err := validateMachine(d)
	if err != nil {
		return "", err
	}
	return verdict(dxml.FeedReader(m.NewFeeder(), r, chunk)), nil
}

// validateMachine compiles the design's type for streaming validation.
// A word design is refused as a class the tree validator does not know.
func validateMachine(d *dxml.Design) (*dxml.StreamMachine, error) {
	_, global, err := d.Type()
	if errors.Is(err, dxml.ErrWordClass) {
		err = fmt.Errorf("unknown class %q", d.Class())
	}
	if err != nil {
		return nil, err
	}
	return dxml.CompileStream(global), nil
}

// RunValidateDistributed validates a federation over the simulated p2p
// wire: the design file's typing blocks are the peers' local types, and
// the i-th document is the peer document behind the i-th docking point.
// It runs both protocols the paper compares — distributed (each peer
// checks its own document against its local type and ships a verdict)
// and centralized (the kernel peer pulls every fragment in chunk-budget
// frames and validates the extension as one stream) — and, with
// showStats, reports the wire traffic of each, including the bytes a
// mid-transfer rejection saved.
func RunValidateDistributed(d *dxml.Design, docs []*dxml.Tree, chunk int, showStats bool) (string, error) {
	funcs := d.Funcs()
	byFn := make(map[string]*dxml.Tree, len(docs))
	for i, doc := range docs[:min(len(docs), len(funcs))] {
		byFn[funcs[i]] = doc
	}
	// The design's own errors come before a miscounted document list.
	n, err := d.Network(byFn)
	if err != nil {
		return "", needsTree("distributed validation", err)
	}
	if len(docs) != len(funcs) {
		return "", fmt.Errorf("distributed validation needs %d documents (one per docking point %v), got %d",
			len(funcs), funcs, len(docs))
	}
	n.ChunkSize = chunk
	return runRounds(context.Background(), n, showStats)
}

// parseDocArg parses one peer document: XML if it looks like markup,
// otherwise the paper's term syntax.
func parseDocArg(src string) (*dxml.Tree, error) {
	if strings.HasPrefix(strings.TrimSpace(src), "<") {
		return dxml.ParseXML(src)
	}
	return dxml.ParseTree(strings.TrimSpace(src))
}

// needsTree words a word-class design's refusal for the command that
// needed a tree: "serve needs a tree class, not word".
func needsTree(what string, err error) error {
	if errors.Is(err, dxml.ErrWordClass) {
		return fmt.Errorf("%s %w", what, err)
	}
	return err
}

func verdict(err error) string {
	if err != nil {
		return fmt.Sprintf("invalid: %v\n", err)
	}
	return "valid\n"
}
