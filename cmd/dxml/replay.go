package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dxml"
)

// runReplay implements `dxml replay`: re-run a captured session's
// validation offline. The capture's chunk frames carry the fragments
// exactly as they crossed the wire, so the fragments are reassembled,
// re-fed through the same validators the live run used, and the
// recomputed verdicts are checked against the verdict frames the
// capture recorded. Output matches `dxml join` line for line; any
// divergence between the replay and the recording exits nonzero.
func runReplay(args []string) {
	fs := flag.NewFlagSet("dxml replay", flag.ExitOnError)
	design := fs.String("design", "", "design file the capture was recorded against (required)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dxml replay -design <design-file> <capture.dxfr | postmortem.json>")
		fmt.Fprintln(os.Stderr, "re-validates a captured session offline and checks it against the recorded verdicts")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *design == "" || fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	d := loadDesign(*design)
	recs, _, err := loadRecords(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	out, diverged, err := RunReplay(d, recs)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
	if len(diverged) > 0 {
		for _, d := range diverged {
			fmt.Fprintln(os.Stderr, "dxml: replay divergence:", d)
		}
		os.Exit(1)
	}
}

// replaySession is a captured session's validation-relevant state,
// folded out of the frame stream: which docking point each verdict
// request and each transfer carried, the verdict flags that came back,
// and the reassembled fragment bytes.
type replaySession struct {
	verdicts map[string]bool             // fn -> captured verdict flag
	docs     map[string]*strings.Builder // fn -> reassembled fragment (complete transfers only)
	rejected bool                        // a mid-transfer rejection was recorded
}

// foldReplay walks the capture once and groups it by session/stream.
// Ring-truncated chunk frames poison their transfer (the payload bytes
// are gone), so only full captures replay fragments; verdict frames are
// tiny and always survive.
func foldReplay(recs []dxml.FlightRecord) (*replaySession, error) {
	s := &replaySession{
		verdicts: map[string]bool{},
		docs:     map[string]*strings.Builder{},
	}
	type key struct {
		sess uint64
		id   uint32
	}
	reqFn := map[key]string{}  // verdict_req id -> fn
	openFn := map[key]string{} // open stream id -> fn
	bufs := map[key]*strings.Builder{}
	poisoned := map[key]bool{}
	for _, r := range recs {
		info, err := dxml.DecodeFrame(r.Wire)
		if err != nil {
			return nil, fmt.Errorf("replay: undecodable frame: %w", err)
		}
		k := key{r.Sess, info.Stream}
		switch info.Type {
		case "verdict_req":
			reqFn[k] = info.Str
		case "verdict":
			if fn, ok := reqFn[k]; ok {
				s.verdicts[fn] = info.Flag == 1
			}
		case "open":
			openFn[k] = info.Str
			bufs[k] = &strings.Builder{}
		case "chunk":
			if b := bufs[k]; b != nil {
				if info.Truncated {
					poisoned[k] = true
				} else {
					b.Write(info.Data)
				}
			}
		case "end":
			if fn, ok := openFn[k]; ok && !poisoned[k] {
				s.docs[fn] = bufs[k]
			}
		case "reject":
			if _, ok := openFn[k]; ok {
				s.rejected = true
			}
		}
	}
	return s, nil
}

// RunReplay re-validates a captured session offline. The distributed
// verdict is recomputed by validating each reassembled fragment against
// its docking point's local type — the exact check the remote peer ran
// — and each recomputed verdict is diffed against the captured verdict
// frame. The centralized verdict is recomputed by rebuilding the
// federation in process from the reassembled fragments and pulling them
// through the kernel validator again. The output matches `dxml join`;
// the returned divergences name every disagreement between replay and
// recording.
func RunReplay(d *dxml.Design, recs []dxml.FlightRecord) (string, []string, error) {
	if _, _, err := d.Type(); err != nil {
		return "", nil, needsTree("replay", err)
	}
	typing, err := d.Typing()
	if err != nil {
		return "", nil, err
	}
	s, err := foldReplay(recs)
	if err != nil {
		return "", nil, err
	}
	funcs := d.Funcs()

	var diverged []string
	var missing []string // neither verdict nor completed transfer captured
	distributed := true
	complete := true
	trees := map[string]*dxml.Tree{}
	for i, fn := range funcs {
		doc, ok := s.docs[fn]
		if !ok {
			// No completed transfer for this docking point: fall back to
			// the captured verdict for the distributed line; the
			// centralized protocol cannot be re-fed.
			complete = false
			if v, seen := s.verdicts[fn]; seen {
				distributed = distributed && v
			} else {
				missing = append(missing, fn)
			}
			continue
		}
		m := dxml.CompileStream(typing[i])
		valid := m.ValidateReader(strings.NewReader(doc.String())) == nil
		distributed = distributed && valid
		if captured, seen := s.verdicts[fn]; seen && captured != valid {
			diverged = append(diverged, fmt.Sprintf("%s: captured verdict %s, replay computed %s",
				fn, verdictWord(captured), verdictWord(valid)))
		}
		tree, err := dxml.ParseXML(doc.String())
		if err != nil {
			return "", nil, fmt.Errorf("replay: %s: reassembled fragment does not parse: %w", fn, err)
		}
		trees[fn] = tree
	}

	if len(missing) > 0 && distributed {
		// A short-circuited round cancels the verdicts still in flight
		// once one is invalid; without such a verdict a gap is a gap.
		return "", nil, fmt.Errorf("replay: no verdict or fragment captured for docking point %s", missing[0])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "distributed: %s\n", verdictWord(distributed))
	switch {
	case !complete || s.rejected:
		// The live centralized run never finished pulling fragments —
		// either the recording caught a mid-transfer rejection or the
		// session died first. Both verdicts are "invalid" on the live
		// side; nothing completes offline either.
		fmt.Fprintf(&b, "centralized: %s\n", verdictWord(false))
	default:
		n, err := d.Network(trees)
		if err != nil {
			return "", nil, err
		}
		ok, err := n.ValidateCentralized()
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "centralized: %s\n", verdictWord(ok))
	}
	return b.String(), diverged, nil
}
