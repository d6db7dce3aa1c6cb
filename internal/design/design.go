// Package design reads a distribution design — a kernel T[f1,…,fn] (for
// the word class, a kernel string w0 f1 w1 … fn wn), a global type τ and
// a typing (τ1,…,τn) — into one immutable Design, from which every
// federation of the design is built (Design.Network).
//
// The design file format (cmd/dxml/testdata holds examples):
//
//	class dtd | sdtd | edtd | word
//	kind nFA | dFA | nRE | dRE
//	kernel eurostat(f0 f1 f2)      # or, for class word:
//	kernelstring a f1 c f2 e
//	type:
//	  root eurostat
//	  eurostat -> averages, nationalIndex*
//	end
//	typing f1:                      # optional; word class: typing f1 = regex
//	  root root1
//	  root1 -> nationalIndex*
//	end
//
// Lines starting with # are comments. The class defaults to dtd and the
// kind to nRE. A dtd type block may also hold <!ELEMENT …> declarations.
// The word class writes its type on one line, "type a* b c*".
//
// Parse checks the file's structure. The type and the typing are parsed
// on first use, at most once each: a problem that needs neither never
// fails on them, and one that needs both reports the type's error first.
package design

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dxml/internal/axml"
	"dxml/internal/core"
	"dxml/internal/p2p"
	"dxml/internal/schema"
	"dxml/internal/strlang"
	"dxml/internal/xmltree"
)

// ErrWordClass refuses a tree operation on a word-class design. Its text
// reads after the name of what needed a tree: "serve needs a tree class,
// not word".
var ErrWordClass = errors.New("needs a tree class, not word")

// Design is one parsed design file. Its accessors are safe for
// concurrent use and always return the same values.
type Design struct {
	class        string
	kind         schema.Kind
	kernel       *axml.Kernel
	kernelString *axml.KernelString
	typeSrc      string
	typingSrc    map[string]string // docking point → type block or regex

	typeOnce sync.Once
	dtd      *schema.DTD  // class dtd
	global   *schema.EDTD // tree classes: the type as an EDTD, a DTD lifted
	word     *strlang.NFA // class word
	typeErr  error

	typingOnce sync.Once
	typing     core.Typing     // tree classes
	wordTyping core.WordTyping // class word
	typingErr  error
}

// Parse reads a design file.
func Parse(src string) (*Design, error) {
	d := &Design{class: "dtd", kind: schema.KindNRE, typingSrc: map[string]string{}}
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
			d.class = strings.TrimSpace(strings.TrimPrefix(line, "class "))
		case strings.HasPrefix(line, "kind "):
			switch strings.TrimSpace(strings.TrimPrefix(line, "kind ")) {
			case "nFA":
				d.kind = schema.KindNFA
			case "dFA":
				d.kind = schema.KindDFA
			case "nRE":
				d.kind = schema.KindNRE
			case "dRE":
				d.kind = schema.KindDRE
			default:
				return nil, fmt.Errorf("unknown kind in %q", line)
			}
		case strings.HasPrefix(line, "kernelstring "):
			ks, err := axml.ParseKernelString(strings.TrimPrefix(line, "kernelstring "))
			if err != nil {
				return nil, err
			}
			d.kernelString = ks
		case strings.HasPrefix(line, "kernel "):
			k, err := axml.ParseKernel(strings.TrimSpace(strings.TrimPrefix(line, "kernel ")))
			if err != nil {
				return nil, err
			}
			d.kernel = k
		case line == "type:":
			block, err := readBlock()
			if err != nil {
				return nil, err
			}
			d.typeSrc = block
		case strings.HasPrefix(line, "type "): // single-line type (word class)
			d.typeSrc = strings.TrimSpace(strings.TrimPrefix(line, "type "))
		case strings.HasPrefix(line, "typing ") && strings.HasSuffix(line, ":"):
			fn := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "typing ")), ":")
			block, err := readBlock()
			if err != nil {
				return nil, err
			}
			d.typingSrc[fn] = block
		case strings.HasPrefix(line, "typing "): // single-line: typing f1 = regex
			rest := strings.TrimSpace(strings.TrimPrefix(line, "typing "))
			fn, re, ok := strings.Cut(rest, "=")
			if !ok {
				return nil, fmt.Errorf("typing line %q needs 'typing f = regex' or a block", line)
			}
			d.typingSrc[strings.TrimSpace(fn)] = strings.TrimSpace(re)
		default:
			return nil, fmt.Errorf("unrecognized line %q", line)
		}
	}
	if d.typeSrc == "" {
		return nil, fmt.Errorf("design file has no type")
	}
	if d.class == "word" {
		if d.kernelString == nil {
			return nil, fmt.Errorf("class word needs a kernelstring")
		}
	} else if d.kernel == nil {
		return nil, fmt.Errorf("class %s needs a kernel", d.class)
	}
	return d, nil
}

// Class is dtd, sdtd, edtd or word.
func (d *Design) Class() string { return d.class }

// Kind is the content-model formalism of the type and the typing.
func (d *Design) Kind() schema.Kind { return d.kind }

// Kernel is the kernel document; nil for class word.
func (d *Design) Kernel() *axml.Kernel { return d.kernel }

// KernelString is class word's kernel; nil for the tree classes.
func (d *Design) KernelString() *axml.KernelString { return d.kernelString }

// Funcs lists the docking points in kernel order.
func (d *Design) Funcs() []string {
	if d.class == "word" {
		return append([]string(nil), d.kernelString.Funcs...)
	}
	return d.kernel.Funcs()
}

// Type returns the global type: the DTD for class dtd (nil for the
// other classes) and the type as an EDTD, the DTD lifted, which is the
// form validation runs on. Class word has no tree type: ErrWordClass.
func (d *Design) Type() (*schema.DTD, *schema.EDTD, error) {
	if d.class == "word" {
		return nil, nil, ErrWordClass
	}
	d.typeOnce.Do(d.parseType)
	return d.dtd, d.global, d.typeErr
}

// WordType returns class word's type, a string language.
func (d *Design) WordType() (*strlang.NFA, error) {
	if d.class != "word" {
		return nil, fmt.Errorf("class %s has no word type", d.class)
	}
	d.typeOnce.Do(d.parseType)
	return d.word, d.typeErr
}

func (d *Design) parseType() {
	switch d.class {
	case "word":
		d.word, d.typeErr = regexNFA(d.typeSrc)
	case "dtd":
		parse := schema.ParseDTD
		if strings.Contains(d.typeSrc, "<!ELEMENT") {
			parse = schema.ParseW3CDTD
		}
		if d.dtd, d.typeErr = parse(d.kind, d.typeSrc); d.typeErr == nil {
			d.global = d.dtd.ToEDTD()
		}
	case "sdtd", "edtd":
		d.global, d.typeErr = schema.ParseEDTD(d.kind, d.typeSrc)
	default:
		d.typeErr = fmt.Errorf("unknown class %q", d.class)
	}
}

// Typing returns the typing, one local type per docking point in kernel
// order. Class word has no tree typing: ErrWordClass.
func (d *Design) Typing() (core.Typing, error) {
	if d.class == "word" {
		return nil, ErrWordClass
	}
	d.typingOnce.Do(d.parseTyping)
	return d.typing, d.typingErr
}

// WordTyping returns class word's typing, one regular language per
// docking point in kernel-string order.
func (d *Design) WordTyping() (core.WordTyping, error) {
	if d.class != "word" {
		return nil, fmt.Errorf("class %s has no word typing", d.class)
	}
	d.typingOnce.Do(d.parseTyping)
	return d.wordTyping, d.typingErr
}

func (d *Design) parseTyping() {
	if d.class == "word" {
		d.wordTyping, d.typingErr = parseBlocks(d, "no typing for %s", regexNFA)
		return
	}
	d.typing, d.typingErr = parseBlocks(d, "no typing block for %s", func(src string) (*schema.EDTD, error) {
		return schema.ParseEDTD(d.kind, src)
	})
}

// parseBlocks parses the typing source of every docking point in kernel
// order; missing words the error for a point that has none.
func parseBlocks[T any](d *Design, missing string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range d.Funcs() {
		src, ok := d.typingSrc[f]
		if !ok {
			return nil, fmt.Errorf(missing, f)
		}
		t, err := parse(src)
		if err != nil {
			return nil, fmt.Errorf("typing %s: %w", f, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func regexNFA(src string) (*strlang.NFA, error) {
	re, err := strlang.ParseRegex(strings.TrimSpace(src))
	if err != nil {
		return nil, err
	}
	return strlang.RegexNFA(re), nil
}

// Digest is the fingerprint a session hello carries for this design:
// the Digest of every Network it builds.
func (d *Design) Digest() ([]byte, error) {
	_, global, err := d.Type()
	if err != nil {
		return nil, err
	}
	return p2p.DesignDigest(d.kernel, global), nil
}

// Network builds a federation of the design: the kernel peer over the
// global type, and one resource peer per entry of docs, typed by the
// design's local type for that docking point. docs may hold any subset
// of the docking points, and refuses one the kernel lacks. A nil docs
// builds the kernel peer alone, as a joiner that dials remote hosts
// runs it, and needs no typing; any other docs, even an empty one, does.
func (d *Design) Network(docs map[string]*xmltree.Tree) (*p2p.Network, error) {
	_, global, err := d.Type()
	if err != nil {
		return nil, err
	}
	n := p2p.NewNetwork(d.kernel, global)
	if docs == nil {
		return n, nil
	}
	typing, err := d.Typing()
	if err != nil {
		return nil, err
	}
	for fn, doc := range docs {
		i := d.kernel.FuncIndex(fn)
		if i < 0 {
			return nil, fmt.Errorf("design has no docking point %s (functions: %v)", fn, d.kernel.Funcs())
		}
		if err := n.AddPeer(fn, doc, typing[i]); err != nil {
			return nil, err
		}
	}
	return n, nil
}
