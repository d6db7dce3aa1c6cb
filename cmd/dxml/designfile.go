package main

import (
	"fmt"
	"io"
	"strings"

	"dxml"
)

// DesignFile is a parsed design description.
type DesignFile struct {
	Class        string // dtd | sdtd | edtd | word
	Kind         dxml.Kind
	Kernel       *dxml.Kernel
	KernelString *dxml.KernelString
	TypeSrc      string
	TypingSrc    map[string]string // function → grammar or regex source
	AllowTrivial bool
}

// ParseDesignFile parses the design file format documented on the
// command.
func ParseDesignFile(src string) (*DesignFile, error) {
	df := &DesignFile{Class: "dtd", Kind: dxml.KindNRE, TypingSrc: map[string]string{}}
	lines := strings.Split(src, "\n")
	i := 0
	readBlock := func() (string, error) {
		var b strings.Builder
		for ; i < len(lines); i++ {
			line := strings.TrimSpace(lines[i])
			if line == "end" {
				i++
				return b.String(), nil
			}
			b.WriteString(lines[i])
			b.WriteByte('\n')
		}
		return "", fmt.Errorf("unterminated block (missing 'end')")
	}
	for i < len(lines) {
		line := strings.TrimSpace(lines[i])
		i++
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "class "):
			df.Class = strings.TrimSpace(strings.TrimPrefix(line, "class "))
		case strings.HasPrefix(line, "kind "):
			switch strings.TrimSpace(strings.TrimPrefix(line, "kind ")) {
			case "nFA":
				df.Kind = dxml.KindNFA
			case "dFA":
				df.Kind = dxml.KindDFA
			case "nRE":
				df.Kind = dxml.KindNRE
			case "dRE":
				df.Kind = dxml.KindDRE
			default:
				return nil, fmt.Errorf("unknown kind in %q", line)
			}
		case strings.HasPrefix(line, "kernelstring "):
			ks, err := dxml.ParseKernelString(strings.TrimPrefix(line, "kernelstring "))
			if err != nil {
				return nil, err
			}
			df.KernelString = ks
		case strings.HasPrefix(line, "kernel "):
			k, err := dxml.ParseKernel(strings.TrimSpace(strings.TrimPrefix(line, "kernel ")))
			if err != nil {
				return nil, err
			}
			df.Kernel = k
		case line == "type:":
			block, err := readBlock()
			if err != nil {
				return nil, err
			}
			df.TypeSrc = block
		case strings.HasPrefix(line, "type "): // single-line type (word class)
			df.TypeSrc = strings.TrimSpace(strings.TrimPrefix(line, "type "))
		case strings.HasPrefix(line, "typing ") && strings.HasSuffix(line, ":"):
			fn := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "typing ")), ":")
			block, err := readBlock()
			if err != nil {
				return nil, err
			}
			df.TypingSrc[fn] = block
		case strings.HasPrefix(line, "typing "): // single-line: typing f1 = regex
			rest := strings.TrimSpace(strings.TrimPrefix(line, "typing "))
			fn, re, ok := strings.Cut(rest, "=")
			if !ok {
				return nil, fmt.Errorf("typing line %q needs 'typing f = regex' or a block", line)
			}
			df.TypingSrc[strings.TrimSpace(fn)] = strings.TrimSpace(re)
		default:
			return nil, fmt.Errorf("unrecognized line %q", line)
		}
	}
	if df.TypeSrc == "" {
		return nil, fmt.Errorf("design file has no type")
	}
	if df.Class == "word" {
		if df.KernelString == nil {
			return nil, fmt.Errorf("class word needs a kernelstring")
		}
	} else if df.Kernel == nil {
		return nil, fmt.Errorf("class %s needs a kernel", df.Class)
	}
	return df, nil
}

// typing assembles the file's typing blocks in kernel function order.
func (df *DesignFile) typing() (dxml.Typing, error) {
	funcs := df.Kernel.Funcs()
	out := make(dxml.Typing, len(funcs))
	for i, f := range funcs {
		src, ok := df.TypingSrc[f]
		if !ok {
			return nil, fmt.Errorf("no typing block for %s", f)
		}
		e, err := dxml.ParseEDTD(df.Kind, src)
		if err != nil {
			return nil, fmt.Errorf("typing %s: %w", f, err)
		}
		out[i] = e
	}
	return out, nil
}

func (df *DesignFile) wordTyping() (dxml.WordTyping, error) {
	funcs := df.KernelString.Funcs
	out := make(dxml.WordTyping, len(funcs))
	for i, f := range funcs {
		src, ok := df.TypingSrc[f]
		if !ok {
			return nil, fmt.Errorf("no typing for %s", f)
		}
		re, err := dxml.ParseRegex(strings.TrimSpace(src))
		if err != nil {
			return nil, fmt.Errorf("typing %s: %w", f, err)
		}
		out[i] = dxml.RegexNFA(re)
	}
	return out, nil
}

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

// Run decides the requested problem and renders the answer.
func Run(df *DesignFile, problem, doc string) (string, error) {
	if df.Class == "word" {
		return runWord(df, problem)
	}
	switch problem {
	case "validate":
		return runValidate(df, doc)
	case "cons":
		return runCons(df)
	}
	return runTree(df, problem)
}

func runWord(df *DesignFile, problem string) (string, error) {
	re, err := dxml.ParseRegex(strings.TrimSpace(df.TypeSrc))
	if err != nil {
		return "", err
	}
	d := dxml.NewWordDesign(dxml.RegexNFA(re), df.KernelString)
	d.AllowTrivialTypes = df.AllowTrivial
	funcs := df.KernelString.Funcs
	switch problem {
	case "exists-local":
		if t, ok := d.LocalTyping(); ok {
			return "local typing exists:\n" + formatWordTyping(funcs, t), nil
		}
		return "no local typing exists\n", nil
	case "exists-ml":
		ts := d.MaximalLocalTypings()
		if len(ts) == 0 {
			return "no maximal local typing exists\n", nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d maximal local typing(s):\n", len(ts))
		for _, t := range ts {
			b.WriteString(formatWordTyping(funcs, t))
			b.WriteString("\n")
		}
		return b.String(), nil
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
		typing, err := df.wordTyping()
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

func parseTreeType(df *DesignFile) (*dxml.DTD, *dxml.EDTD, error) {
	switch df.Class {
	case "dtd":
		if strings.Contains(df.TypeSrc, "<!ELEMENT") {
			d, err := dxml.ParseW3CDTD(df.Kind, df.TypeSrc)
			return d, nil, err
		}
		d, err := dxml.ParseDTD(df.Kind, df.TypeSrc)
		return d, nil, err
	case "sdtd", "edtd":
		e, err := dxml.ParseEDTD(df.Kind, df.TypeSrc)
		return nil, e, err
	}
	return nil, nil, fmt.Errorf("unknown class %q", df.Class)
}

// nodeDesign is what DTD and SDTD designs share: both reduce to one
// string design per kernel node.
type nodeDesign interface {
	ExistsLocal() (dxml.Typing, bool)
	ExistsPerfect() (dxml.Typing, bool)
	ExistsMaximalLocal() (dxml.Typing, bool)
	MaximalLocalWordTypings() []dxml.WordTyping
	TypingFromWords(dxml.WordTyping) dxml.Typing
	IsLocal(dxml.Typing) (bool, error)
	IsMaximalLocal(dxml.Typing) (bool, error)
	IsPerfect(dxml.Typing) (bool, error)
}

func runTree(df *DesignFile, problem string) (string, error) {
	dtd, edtd, err := parseTreeType(df)
	if err != nil {
		return "", err
	}
	funcs := df.Kernel.Funcs()
	existsOut := func(t dxml.Typing, ok bool, what string) string {
		if !ok {
			return "no " + what + " typing exists\n"
		}
		return what + " typing exists:\n" + formatTyping(funcs, t)
	}
	// verify decides loc, ml or perf on the design file's typing.
	verify := func(check func(dxml.Typing) (bool, error)) (string, error) {
		typing, err := df.typing()
		if err != nil {
			return "", err
		}
		ok, err := check(typing)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s: %v\n", problem, ok), nil
	}

	if df.Class == "edtd" {
		d := &dxml.EDTDDesign{Type: edtd, Kernel: df.Kernel, AllowTrivialTypes: df.AllowTrivial}
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
			if len(ts) == 0 {
				return "no maximal local typing exists\n", nil
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%d maximal local typing(s):\n", len(ts))
			for _, t := range ts {
				b.WriteString(formatTyping(funcs, t))
				b.WriteString("\n")
			}
			return b.String(), nil
		case "exists-perfect":
			t, ok, err := d.ExistsPerfect()
			if err != nil {
				return "", err
			}
			return existsOut(t, ok, "perfect"), nil
		case "loc":
			return verify(d.IsLocal)
		case "ml":
			return verify(d.IsMaximalLocal)
		case "perf":
			return verify(d.IsPerfect)
		}
		return "", fmt.Errorf("unknown problem %q for class %s", problem, df.Class)
	}

	var d nodeDesign = &dxml.DTDDesign{Type: dtd, Kernel: df.Kernel, AllowTrivialTypes: df.AllowTrivial}
	if df.Class == "sdtd" {
		d = &dxml.SDTDDesign{Type: edtd, Kernel: df.Kernel, AllowTrivialTypes: df.AllowTrivial}
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
	case "loc":
		return verify(d.IsLocal)
	case "ml":
		return verify(d.IsMaximalLocal)
	case "perf":
		return verify(d.IsPerfect)
	}
	return "", fmt.Errorf("unknown problem %q for class %s", problem, df.Class)
}

func runCons(df *DesignFile) (string, error) {
	typing, err := df.typing()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	e, err := dxml.ConsEDTD(df.Kernel, typing, df.Kind)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "cons[%s-EDTD]: yes (always); typeT has %d specialized names\n",
		df.Kind, len(e.SpecializedNames()))
	sres, err := dxml.ConsSDTD(df.Kernel, typing, df.Kind)
	if err != nil {
		return "", err
	}
	if sres.Consistent {
		fmt.Fprintf(&b, "cons[%s-SDTD]: yes\n", df.Kind)
	} else {
		fmt.Fprintf(&b, "cons[%s-SDTD]: no (%s)\n", df.Kind, sres.Reason)
	}
	dres, err := dxml.ConsDTD(df.Kernel, typing, df.Kind)
	if err != nil {
		return "", err
	}
	if dres.Consistent {
		fmt.Fprintf(&b, "cons[%s-DTD]: yes; typeT:\n%s", df.Kind, dres.DTD)
	} else {
		fmt.Fprintf(&b, "cons[%s-DTD]: no (%s)\n", df.Kind, dres.Reason)
	}
	return b.String(), nil
}

// designEDTD resolves the design file's type to an EDTD (lifting DTDs),
// the form both validation modes run on.
func designEDTD(df *DesignFile) (*dxml.EDTD, error) {
	dtd, edtd, err := parseTreeType(df)
	if err != nil {
		return nil, err
	}
	if dtd != nil {
		edtd = dtd.ToEDTD()
	}
	return edtd, nil
}

// validateMachine compiles the design file's type for streaming
// validation.
func validateMachine(df *DesignFile) (*dxml.StreamMachine, error) {
	edtd, err := designEDTD(df)
	if err != nil {
		return nil, err
	}
	return dxml.CompileStream(edtd), nil
}

func runValidate(df *DesignFile, doc string) (string, error) {
	if strings.TrimSpace(doc) == "" {
		return "", fmt.Errorf("validate needs a document argument (or - for stdin)")
	}
	m, err := validateMachine(df)
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
func RunValidateStream(df *DesignFile, r io.Reader, chunk int) (string, error) {
	m, err := validateMachine(df)
	if err != nil {
		return "", err
	}
	return verdict(dxml.FeedReader(m.NewFeeder(), r, chunk)), nil
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
func RunValidateDistributed(df *DesignFile, docs []*dxml.Tree, chunk int, showStats bool) (string, error) {
	if df.Class == "word" {
		return "", fmt.Errorf("distributed validation needs a tree class, not word")
	}
	edtd, err := designEDTD(df)
	if err != nil {
		return "", err
	}
	typing, err := df.typing()
	if err != nil {
		return "", err
	}
	funcs := df.Kernel.Funcs()
	if len(docs) != len(funcs) {
		return "", fmt.Errorf("distributed validation needs %d documents (one per docking point %v), got %d",
			len(funcs), funcs, len(docs))
	}
	build := func() (*dxml.Network, error) {
		n := dxml.NewNetwork(df.Kernel, edtd)
		n.ChunkSize = chunk
		for i, f := range funcs {
			if err := n.AddPeer(f, docs[i], typing[i]); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	var b strings.Builder
	report := func(name string, run func(n *dxml.Network) (bool, error)) error {
		n, err := build()
		if err != nil {
			return err
		}
		ok, err := run(n)
		if err != nil {
			return err
		}
		v := "valid"
		if !ok {
			v = "invalid"
		}
		fmt.Fprintf(&b, "%s: %s\n", name, v)
		if showStats {
			writeWireLine(&b, n.Stats.Totals())
		}
		return nil
	}
	if err := report("distributed", (*dxml.Network).ValidateDistributed); err != nil {
		return "", err
	}
	if err := report("centralized", (*dxml.Network).ValidateCentralized); err != nil {
		return "", err
	}
	return b.String(), nil
}

// parseDocArg parses one peer document: XML if it looks like markup,
// otherwise the paper's term syntax.
func parseDocArg(src string) (*dxml.Tree, error) {
	if strings.HasPrefix(strings.TrimSpace(src), "<") {
		return dxml.ParseXML(src)
	}
	return dxml.ParseTree(strings.TrimSpace(src))
}

func verdict(err error) string {
	if err != nil {
		return fmt.Sprintf("invalid: %v\n", err)
	}
	return "valid\n"
}
