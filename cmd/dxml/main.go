// Command dxml decides distributed XML design problems on a design file
// and runs real federations over TCP.
//
// Usage:
//
//	dxml -problem <problem> <design-file>
//	dxml -problem validate <design-file> <document.term|document.xml>
//	dxml -problem validate <design-file> -        # stream XML from stdin
//	dxml -problem validate -distributed [-stats] [-chunk N] <design-file> <doc>...
//	dxml serve [-listen addr] [-watch] [-chaos seed] <design-file> <fn=document>...
//	dxml join [-connect addr] [-peer fn=addr]... [-stats] [-chunk N] [-watch [-reconnect N]] <design-file>
//	dxml host [-listen addr] [-http addr] [caps...] [<design-file>,<fn=document>,... ...]
//	dxml register -http addr [-name tenant] <design-file> <fn=document>...
//	dxml inspect <capture.dxfr | postmortem.json>
//	dxml replay -design <design-file> <capture.dxfr | postmortem.json>
//	dxml top -http addr [-interval d] [-n count]
//
// Problems: exists-local, exists-ml, exists-perfect (top-down existence);
// loc, ml, perf (verification of the typing given in the file);
// cons (bottom-up consistency for the file's class); validate.
//
// The serve and join subcommands run the federation over real sockets:
// serve hosts the documents behind named docking points (one serve per
// site, each hosting any subset), and join connects as the kernel peer,
// streams the fragments over a length-prefixed binary frame protocol,
// and prints the verdict of both validation protocols — with traffic
// identical, message for message and byte for byte, to the in-process
// wire on the same documents. The session hello carries a digest of the
// design, so a join against hosts serving a different design fails
// before any fragment moves.
//
// The host subcommand is the multi-tenant form of serve: one process,
// one port, many designs. Each tenant is a design file plus its
// documents; incoming sessions are routed by the design digest their
// hello carries, one compiled validator is shared by every session of a
// design, and admission caps (sessions, open transfers, resident
// memory) refuse over-budget hellos with a typed error instead of
// hanging them. -http serves /healthz, /metrics (per-tenant and global
// counters), and /register — the endpoint `dxml register` posts a new
// design to at runtime. `dxml join` needs no new flags: joining a
// multi-tenant host looks exactly like joining a serve.
//
// The flight recorder closes the loop: serve, join, and host take
// -capture dir, which records every wire frame into dir/capture.dxfr
// and dumps a postmortem bundle (frames, trace spans, metrics) on any
// typed failure — a refused hello, a liveness timeout, a malformed
// frame, or a chaos-injected drop. `dxml inspect` prints a capture or
// bundle as a frame timeline with per-stream flow and credit-window
// occupancy; `dxml replay` re-validates the captured fragments offline
// and cross-checks the recorded verdicts; `dxml top` is a live
// per-tenant dashboard over a multi-tenant host's /metrics.
//
// Validation runs on the streaming engine: one pass, memory proportional
// to the document's depth. With "-" the document is fed to the push
// parser in chunks as stdin delivers them and is never held in memory,
// so generated workloads pipe straight in:
//
//	dxmlgen -n 1 -format xml type.grammar | dxml -problem validate file.design -
//
// With -distributed the design file's typing blocks become the local
// types of a simulated federation (one document argument per docking
// point, in kernel order) and both protocols run over the chunked wire:
// distributed validation ships only verdicts, centralized validation
// pulls every fragment in -chunk-byte frames and rejects invalid
// documents mid-transfer. -stats prints the traffic of each, including
// the bytes such a rejection saved.
//
// The design file format is specified by dxml.ParseDesign's package,
// internal/design; testdata/ holds examples.
package main

import (
	"flag"
	"fmt"
	"os"

	"dxml"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "join":
			runJoin(os.Args[2:])
			return
		case "host":
			runHost(os.Args[2:])
			return
		case "register":
			runRegister(os.Args[2:])
			return
		case "inspect":
			runInspect(os.Args[2:])
			return
		case "replay":
			runReplay(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		}
	}
	problem := flag.String("problem", "exists-perfect", "problem to decide")
	trivial := flag.Bool("allow-trivial", false, "allow {ε} as a resource type (literal Definition 12; see DESIGN.md E4)")
	distributed := flag.Bool("distributed", false, "validate: run the p2p federation over the design file's typing (one document per docking point)")
	stats := flag.Bool("stats", false, "validate: print wire traffic (messages, frames, bytes, bytes saved)")
	chunk := flag.Int("chunk", 0, "distributed runs: fragment frame budget in bytes (0 = default 4096; -chunk -1 = unchunked, the only valid negative); stdin validation: read-chunk size (0 or -1 = 32 KiB)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: dxml -problem <problem> <design-file> [document...]")
		fmt.Fprintln(os.Stderr, "       dxml serve|join ... (see dxml serve -h, dxml join -h)")
		os.Exit(2)
	}
	if err := validateChunkFlag(*chunk); err != nil {
		fatal(err)
	}
	d := loadDesign(flag.Arg(0))
	if *problem == "validate" && *distributed {
		docs := make([]*dxml.Tree, 0, flag.NArg()-1)
		for _, arg := range flag.Args()[1:] {
			b, err := os.ReadFile(arg)
			if err != nil {
				fatal(err)
			}
			doc, err := parseDocArg(string(b))
			if err != nil {
				fatal(fmt.Errorf("%s: %w", arg, err))
			}
			docs = append(docs, doc)
		}
		out, err := RunValidateDistributed(d, docs, *chunk, *stats)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	var doc string
	if flag.NArg() > 1 {
		if arg := flag.Arg(1); arg == "-" && *problem == "validate" {
			// One streaming pass over stdin; the document is never
			// materialized.
			out, err := RunValidateStream(d, os.Stdin, *chunk)
			if err != nil {
				fatal(err)
			}
			fmt.Print(out)
			return
		}
		b, err := os.ReadFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		doc = string(b)
	}
	out, err := Run(d, *problem, doc, *trivial)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// loadDesign reads and parses a design file, exiting on failure.
func loadDesign(path string) *dxml.Design {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	d, err := dxml.ParseDesign(string(src))
	if err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dxml:", err)
	os.Exit(1)
}
