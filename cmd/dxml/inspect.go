package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dxml"
)

// runInspect implements `dxml inspect`: decode a flight capture file
// (capture.dxfr) or a postmortem bundle (postmortem-*.json) and print
// the frame timeline, the per-stream flow summary, and the credit
// window occupancy each transfer reached.
func runInspect(args []string) {
	fs := flag.NewFlagSet("dxml inspect", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dxml inspect <capture.dxfr | postmortem.json>")
		fmt.Fprintln(os.Stderr, "decodes a flight recording: frame timeline, per-stream flow, window occupancy")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	out, err := RunInspect(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// loadRecords reads a flight artifact by content, not extension: a
// leading '{' is a postmortem bundle (JSON with the capture embedded),
// anything else must carry the capture magic. The bundle, when the
// artifact is one, rides along for its header fields.
func loadRecords(path string) ([]dxml.FlightRecord, *dxml.FlightBundle, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(b) > 0 && b[0] == '{' {
		bundle, err := dxml.ReadBundle(path)
		if err != nil {
			return nil, nil, err
		}
		recs, err := bundle.Records()
		if err != nil {
			return nil, nil, err
		}
		return recs, bundle, nil
	}
	recs, err := dxml.ReadCapture(bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	return recs, nil, nil
}

// streamFlow accumulates one transfer's life from its frames: the
// docking point it carries, chunk volume, completion, and how full its
// credit window ran (chunks in flight beyond the last cumulative ack).
type streamFlow struct {
	sess       uint64
	id         uint32
	fn         string
	chunks     int
	bytes      int
	acked      uint64
	peakInUse  int
	win        uint32
	ended      bool
	rejected   bool
	firstIndex int
}

// RunInspect renders a flight artifact as text; split from runInspect
// so tests can diff the report against a scripted session.
func RunInspect(path string) (string, error) {
	recs, bundle, err := loadRecords(path)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if bundle != nil {
		fmt.Fprintf(&b, "postmortem bundle: kind=%s frames=%d spans=%d\n", bundle.Kind, bundle.Frames, len(bundle.Spans))
		if bundle.Err != "" {
			fmt.Fprintf(&b, "  err: %s\n", bundle.Err)
		}
		if m := bundle.Metrics; m != nil {
			fmt.Fprintf(&b, "  metrics: %d counters, %d histograms\n", len(m.Counters), len(m.Hists))
		}
	} else {
		fmt.Fprintf(&b, "capture: %d frames\n", len(recs))
	}
	if len(recs) == 0 {
		return b.String(), nil
	}

	flows := map[[2]uint64]*streamFlow{}
	flow := func(sess uint64, id uint32, idx int) *streamFlow {
		k := [2]uint64{sess, uint64(id)}
		f := flows[k]
		if f == nil {
			f = &streamFlow{sess: sess, id: id, firstIndex: idx}
			flows[k] = f
		}
		return f
	}

	b.WriteString("timeline:\n")
	epoch := recs[0].MonoNs
	for i, r := range recs {
		ms := float64(r.MonoNs-epoch) / 1e6
		fmt.Fprintf(&b, "  t+%9.3fms %-3s %016x", ms, r.Dir.String(), r.Sess)
		info, derr := dxml.DecodeFrame(r.Wire)
		if derr != nil {
			fmt.Fprintf(&b, " undecodable len=%d (%v)\n", r.Orig, derr)
			continue
		}
		fmt.Fprintf(&b, " %-14s len=%d", info.Type, r.Orig)
		switch info.Type {
		case "verdict_req", "open", "subscribe", "resume":
			fmt.Fprintf(&b, " fn=%s", info.Str)
		case "verdict":
			fmt.Fprintf(&b, " %s", verdictWord(info.Flag == 1))
		case "begin":
			fmt.Fprintf(&b, " size=%d win=%d", info.Size, info.Win)
		case "ack":
			fmt.Fprintf(&b, " acked=%d", info.Ver)
		case "reject", "stream_err", "error", "refuse":
			if info.Flag != 0 { // the refuse code of a refusal
				fmt.Fprintf(&b, " code=%d", info.Flag)
			}
			if info.Str != "" {
				fmt.Fprintf(&b, " msg=%q", info.Str)
			}
		}
		if info.Truncated {
			b.WriteString(" (ring-truncated)")
		}
		b.WriteString("\n")

		// Flow accounting: streams are born by open, fed by chunks,
		// drained by cumulative acks, and closed by end or reject.
		switch info.Type {
		case "open":
			flow(r.Sess, info.Stream, i).fn = info.Str
		case "begin":
			flow(r.Sess, info.Stream, i).win = info.Win
		case "chunk":
			f := flow(r.Sess, info.Stream, i)
			f.chunks++
			f.bytes += len(info.Data)
			if info.Truncated {
				// The ring kept only a prefix; size the chunk by its
				// wire length instead (header + stream id overhead).
				f.bytes += info.WireLen - len(info.Data) - 9
			}
			if inUse := f.chunks - int(f.acked); inUse > f.peakInUse {
				f.peakInUse = inUse
			}
		case "ack":
			f := flow(r.Sess, info.Stream, i)
			if info.Ver > f.acked {
				f.acked = info.Ver
			}
		case "end":
			flow(r.Sess, info.Stream, i).ended = true
		case "reject":
			flow(r.Sess, info.Stream, i).rejected = true
		}
	}

	if len(flows) > 0 {
		ordered := make([]*streamFlow, 0, len(flows))
		for _, f := range flows {
			ordered = append(ordered, f)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].firstIndex < ordered[j].firstIndex })
		b.WriteString("streams:\n")
		for _, f := range ordered {
			state := "open"
			switch {
			case f.rejected:
				state = "rejected"
			case f.ended:
				state = "complete"
			}
			fmt.Fprintf(&b, "  sess %016x stream %d", f.sess, f.id)
			if f.fn != "" {
				fmt.Fprintf(&b, " (%s)", f.fn)
			}
			fmt.Fprintf(&b, ": %d chunks, %d bytes, %s", f.chunks, f.bytes, state)
			if f.win > 0 {
				fmt.Fprintf(&b, ", peak window %d/%d", f.peakInUse, f.win)
			}
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}
