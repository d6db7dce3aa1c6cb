package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dxml"
)

// signalContext is a context canceled by SIGINT or SIGTERM, so both
// subcommands tear their sessions down cleanly (close frames on the
// wire) instead of dying mid-frame and leaving the remote side blocked
// on a read until TCP teardown.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runServe implements `dxml serve`: host resource peers from a design
// file on a TCP socket, so remote kernel peers can join and validate
// the federation over the real wire. With -watch, document files are
// polled and changes are re-served to live subscribers as subtree
// edits rather than whole documents.
func runServe(args []string) {
	fs := flag.NewFlagSet("dxml serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9400", "TCP address to listen on (use :0 for an ephemeral port)")
	watch := fs.Bool("watch", false, "watch the document files and publish changes as subtree edits (live mode)")
	window := fs.Int("window", dxml.DefaultWindow, "credit window cap in chunks: the most unacked chunks granted to any transfer (joiners asking for less get less)")
	chaosSeed := fs.Int64("chaos", 0, "fault-injection seed: accepted connections are deterministically doomed to drop (0 = off; for resilience drills against a joining kernel peer)")
	traceFile := fs.String("trace", "", "append JSONL trace spans (session hello, per-fragment open/chunks/verdict) to this file")
	debugHTTP := fs.String("debug-http", "", "serve net/http/pprof and expvar on this address (empty: off)")
	capture := fs.String("capture", "", "flight-record every wire frame into this directory (capture.dxfr plus postmortem bundles on typed failures)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dxml serve [-listen addr] [-watch] [-window N] [-chaos seed] [-trace file] [-debug-http addr] [-capture dir] <design-file> <fn=document>...")
		fmt.Fprintln(os.Stderr, "hosts the documents behind the named docking points; a host may serve")
		fmt.Fprintln(os.Stderr, "any subset of the design's functions (run one serve per site)")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() < 2 {
		fs.Usage()
		os.Exit(2)
	}
	d := loadDesign(fs.Arg(0))
	if err := validateWindowFlag(*window); err != nil {
		fatal(err)
	}
	c, obsCleanup, err := obsFromFlags(*traceFile, *debugHTTP)
	if err != nil {
		fatal(err)
	}
	defer obsCleanup()
	rig, err := newCaptureRig(*capture, c)
	if err != nil {
		fatal(err)
	}
	srv, err := startServe(d, fs.Args()[1:], *listen, *window, *chaosSeed, c, rig)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signalContext()
	defer stop()
	if *chaosSeed != 0 {
		fmt.Printf("dxml: chaos listener armed (seed %d): sessions will drop deterministically\n", *chaosSeed)
	}
	if *watch {
		srv.watch(ctx, 250*time.Millisecond, func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		})
		fmt.Printf("dxml: watching %d document files for edits\n", len(srv.files))
	}
	fmt.Printf("dxml: serving %s on %s\n", strings.Join(srv.funcs, ","), srv.host.Addr())
	<-ctx.Done()
	stop()
	fmt.Println("dxml: signal received, closing sessions")
	srv.host.Close()
	rig.close()
}

// serveInstance is a running `dxml serve`: the TCP host, the hosting
// network (peers carry live editors), and the document file behind each
// hosted docking point.
type serveInstance struct {
	host  *dxml.PeerHost
	net   *dxml.Network
	funcs []string
	files map[string]string
}

// startServe builds the hosting network from fn=docfile assignments and
// starts serving it; split from runServe so tests can drive a loopback
// federation in process. The window caps the credit grant of every
// transfer this serve hosts. A nonzero chaosSeed wraps the listener in
// the deterministic fault injector: accepted sessions are doomed to
// drop after a seed-derived byte budget, so a joining peer's reconnect
// path can be drilled against a real serve. The collector c (nil: no
// telemetry) receives the host side's wire and validation metrics and,
// when it carries a trace sink, per-fragment lifecycle spans. The rig
// (nil: no flight recording) observes every frame this serve moves and
// dumps a postmortem bundle on typed wire failures, including the
// chaos injector's drops.
func startServe(d *dxml.Design, assigns []string, listen string, window int, chaosSeed int64, c *dxml.Obs, rig *captureRig) (*serveInstance, error) {
	srv, err := serveNetwork(d, assigns)
	if err != nil {
		return nil, err
	}
	srv.net.Window = window
	srv.net.Obs = c
	if rig != nil {
		srv.net.Observer = rig
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	if chaosSeed != 0 {
		cl := dxml.NewChaosListener(ln, chaosSeed)
		if rig != nil {
			cl.SetOnFault(rig.onError)
		}
		ln = cl
	}
	srv.host = srv.net.ServeTCP(ln)
	return srv, nil
}

// serveNetwork attaches one peer per fn=docfile assignment, typed by
// the design file's typing block for that function. Every hosted peer
// gets a live editor, so kernel peers can subscribe (`dxml join
// -watch`) whether or not this serve watches its files.
func serveNetwork(d *dxml.Design, assigns []string) (*serveInstance, error) {
	docs := map[string]string{}
	files := map[string]string{}
	for _, a := range assigns {
		fn, path, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("assignment %q: want fn=documentfile", a)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		docs[fn] = string(b)
		files[fn] = path
	}
	n, funcs, err := hostNetwork(d, docs)
	if err != nil {
		return nil, err
	}
	return &serveInstance{net: n, funcs: funcs, files: files}, nil
}

// hostNetwork builds a hosting network from document *contents* — the
// shared core of `dxml serve` (contents read from files) and the
// multi-tenant host's design bundles (contents shipped by `dxml
// register`). Each provided docking point is attached with a live
// editor; a host may serve any subset of the design's functions. The
// returned funcs are the attached ones in kernel order. A broken design
// or an unknown docking point is reported before any document's parse
// error.
func hostNetwork(d *dxml.Design, texts map[string]string) (*dxml.Network, []string, error) {
	docs := make(map[string]*dxml.Tree, len(texts))
	bad := map[string]error{}
	for fn, text := range texts {
		docs[fn], bad[fn] = parseDocArg(text)
	}
	n, err := d.Network(docs)
	if err != nil {
		return nil, nil, needsTree("serve", err)
	}
	var attached []string
	for _, fn := range d.Funcs() {
		if _, ok := texts[fn]; !ok {
			continue
		}
		if err := bad[fn]; err != nil {
			return nil, nil, fmt.Errorf("%s: %w", fn, err)
		}
		if _, err := n.AttachEditor(fn); err != nil {
			return nil, nil, err
		}
		attached = append(attached, fn)
	}
	if len(attached) == 0 {
		return nil, nil, fmt.Errorf("no documents to serve (pass fn=documentfile assignments)")
	}
	return n, attached, nil
}

// watch polls each hosted document file and re-serves changes as
// deltas: the editor diffs the old and new trees and publishes subtree
// edits, which flow to every live subscriber.
func (srv *serveInstance) watch(ctx context.Context, interval time.Duration, logf func(format string, args ...any)) {
	for fn, path := range srv.files {
		go func(fn, path string) {
			var lastMod time.Time
			if fi, err := os.Stat(path); err == nil {
				lastMod = fi.ModTime()
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				fi, err := os.Stat(path)
				if err != nil || !fi.ModTime().After(lastMod) {
					continue
				}
				lastMod = fi.ModTime()
				b, err := os.ReadFile(path)
				if err != nil {
					logf("dxml: %s: %v", path, err)
					continue
				}
				doc, err := parseDocArg(string(b))
				if err != nil {
					logf("dxml: %s: %v", path, err)
					continue
				}
				ed := srv.net.Peers[fn].Live
				edits, err := ed.SetTree(doc)
				if err != nil {
					logf("dxml: %s: %v", fn, err)
					continue
				}
				if len(edits) > 0 {
					logf("dxml: %s: re-served %d edits (now v%d)", fn, len(edits), ed.Version())
				}
			}
		}(fn, path)
	}
}

// peerAddrFlags collects repeated -peer fn=addr mappings.
type peerAddrFlags map[string]string

func (p peerAddrFlags) String() string {
	var parts []string
	for fn, addr := range p {
		parts = append(parts, fn+"="+addr)
	}
	return strings.Join(parts, ",")
}

func (p peerAddrFlags) Set(v string) error {
	fn, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want fn=host:port, got %q", v)
	}
	p[fn] = addr
	return nil
}

// runJoin implements `dxml join`: connect to the hosts serving a
// design's docking points, run both validation protocols over the wire,
// and print verdicts (and, with -stats, the traffic of each). With
// -watch it then subscribes to every docking point's edit log and
// prints verdict transitions as edits arrive, until interrupted.
func runJoin(args []string) {
	fs := flag.NewFlagSet("dxml join", flag.ExitOnError)
	connect := fs.String("connect", "", "host address serving every docking point not mapped by -peer")
	peers := peerAddrFlags{}
	fs.Var(peers, "peer", "fn=host:port mapping for one docking point (repeatable)")
	stats := fs.Bool("stats", false, "print wire traffic (messages, frames, bytes, bytes saved)")
	chunk := fs.Int("chunk", 0, "fragment frame budget in bytes (0 = default 4096; -chunk -1 = unchunked, the only valid negative)")
	window := fs.Int("window", dxml.DefaultWindow, "credit window in chunks: how many unacked chunks each transfer may pipeline (1 = stop-and-wait; hosts may grant less)")
	watch := fs.Bool("watch", false, "stay joined: subscribe to the hosts' edit logs and print verdict transitions (live mode)")
	reconnect := fs.Int("reconnect", 8, "live mode: resubscription attempts per feed outage, with exponential backoff (0 = a feed error is terminal)")
	traceFile := fs.String("trace", "", "append JSONL trace spans (session hello, per-fragment open/chunks/verdict) to this file")
	debugHTTP := fs.String("debug-http", "", "serve net/http/pprof and expvar on this address (empty: off)")
	capture := fs.String("capture", "", "flight-record every wire frame into this directory (capture.dxfr plus a postmortem bundle if the join fails)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dxml join [-connect addr] [-peer fn=addr]... [-stats] [-chunk N] [-window N] [-watch [-reconnect N]] [-trace file] [-debug-http addr] [-capture dir] <design-file>")
		fmt.Fprintln(os.Stderr, "joins a served federation as the kernel peer and validates it over TCP")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	d := loadDesign(fs.Arg(0))
	ctx, stop := signalContext()
	defer stop()
	c, obsCleanup, err := obsFromFlags(*traceFile, *debugHTTP)
	if err != nil {
		fatal(err)
	}
	defer obsCleanup()
	rig, err := newCaptureRig(*capture, c)
	if err != nil {
		fatal(err)
	}
	if *watch {
		err := JoinLive(ctx, d, *connect, peers, *chunk, *window, *reconnect, *stats, os.Stdout, c, rig)
		if err != nil {
			rig.onError(err)
		}
		rig.close()
		if err != nil {
			fatal(err)
		}
		return
	}
	out, err := runJoinObs(ctx, d, *connect, peers, *chunk, *window, *stats, c, rig)
	// A failed join dumps its postmortem before the capture file is
	// sealed — fatal exits without running defers.
	if err != nil {
		rig.onError(err)
	}
	rig.close()
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// dialJoin builds the kernel-peer network and dials the federation's
// hosts; the caller owns the returned session. An interrupt (canceled
// ctx) closes the session so in-flight operations end with clean
// close frames instead of a mid-frame kill.
func dialJoin(ctx context.Context, d *dxml.Design, connect string, peers map[string]string, chunk, window int, c *dxml.Obs, rig *captureRig) (*dxml.Network, dxml.TransportSession, error) {
	if err := validateChunkFlag(chunk); err != nil {
		return nil, nil, err
	}
	if err := validateWindowFlag(window); err != nil {
		return nil, nil, err
	}
	n, err := d.Network(nil)
	if err != nil {
		return nil, nil, needsTree("join", err)
	}
	n.ChunkSize = chunk
	n.Window = window
	n.Obs = c
	if rig != nil {
		n.Observer = rig
	}
	addrs := map[string]string{}
	for _, fn := range d.Funcs() {
		switch {
		case peers[fn] != "":
			addrs[fn] = peers[fn]
		case connect != "":
			addrs[fn] = connect
		default:
			return nil, nil, fmt.Errorf("no host address for docking point %s (use -connect or -peer %s=host:port)", fn, fn)
		}
	}
	sess, err := n.DialTCP(addrs)
	if err != nil {
		return nil, nil, err
	}
	context.AfterFunc(ctx, func() { sess.Close() })
	n.Transport = sess
	return n, sess, nil
}

// RunJoin dials the federation and runs both protocols the paper
// compares over the TCP wire, reporting verdicts and per-protocol
// traffic. The session hello carries the design digest, so joining a
// host that serves a different design fails before any fragment moves.
func RunJoin(d *dxml.Design, connect string, peers map[string]string, chunk, window int, showStats bool) (string, error) {
	return runJoinObs(context.Background(), d, connect, peers, chunk, window, showStats, nil, nil)
}

// runJoinObs is RunJoin under a context, whose cancellation closes the
// session cleanly mid-round, with a telemetry collector (nil: none) and
// a capture rig (nil: no flight recording) — the form `dxml join
// -trace/-debug-http/-capture` drives.
func runJoinObs(ctx context.Context, d *dxml.Design, connect string, peers map[string]string, chunk, window int, showStats bool, c *dxml.Obs, rig *captureRig) (string, error) {
	n, sess, err := dialJoin(ctx, d, connect, peers, chunk, window, c, rig)
	if err != nil {
		return "", err
	}
	defer sess.Close()

	return runRounds(ctx, n, showStats)
}

// runRounds runs both protocols the paper compares on n and reports each
// verdict and, with showStats, the traffic each round added. The
// context-aware variants propagate an interrupt into in-flight fragment
// transfers: the splice loop aborts the open streams, so remote senders
// halt at their next chunk instead of lingering.
func runRounds(ctx context.Context, n *dxml.Network, showStats bool) (string, error) {
	var b strings.Builder
	for _, r := range []struct {
		name string
		run  func(context.Context) (bool, error)
	}{{"distributed", n.ValidateDistributedContext}, {"centralized", n.ValidateCentralizedContext}} {
		pre := n.Stats.Totals()
		ok, err := r.run(ctx)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s: %s\n", r.name, verdictWord(ok))
		if showStats {
			t := n.Stats.Totals()
			writeWireLine(&b, dxml.Totals{
				Messages:   t.Messages - pre.Messages,
				Frames:     t.Frames - pre.Frames,
				Bytes:      t.Bytes - pre.Bytes,
				BytesSaved: t.BytesSaved - pre.BytesSaved,
			})
		}
	}
	return b.String(), nil
}

// JoinLive is `dxml join -watch`: subscribe to every docking point's
// edit log and keep the global verdict live, printing one line per
// applied edit and flagging verdict and health transitions, until ctx
// ends (the interrupt path) or every feed terminates. With reconnect
// attempts > 0, a dropped feed is resubscribed with exponential backoff
// — the verdict goes stale during the outage and recovers by log-suffix
// replay (or a snapshot rebuild when the host compacted past us). The
// telemetry collector and the capture rig may be nil.
func JoinLive(ctx context.Context, d *dxml.Design, connect string, peers map[string]string, chunk, window, reconnect int, showStats bool, w io.Writer, c *dxml.Obs, rig *captureRig) error {
	n, sess, err := dialJoin(ctx, d, connect, peers, chunk, window, c, rig)
	if err != nil {
		return err
	}
	defer sess.Close()
	n.Reconnect = dxml.ReconnectPolicy{MaxAttempts: reconnect}
	lv, err := n.OpenLive(ctx)
	if err != nil {
		return err
	}
	defer lv.Close()
	fmt.Fprintf(w, "live: joined %d docking points, initial verdict %s\n",
		n.Kernel.NumFuncs(), verdictWord(lv.Valid()))
	for {
		select {
		case up, ok := <-lv.Updates():
			if !ok {
				// Canceling ctx also ends every feed, which closes the
				// channel, so this case can win the select over Done.
				if ctx.Err() != nil {
					fmt.Fprintln(w, "live: signal received, closing sessions")
				}
				return nil
			}
			switch up.Health {
			case dxml.HealthStale:
				fmt.Fprintf(w, "live: %s: feed lost at v%d; reconnecting (verdict %s is stale)\n",
					up.Fn, up.Version, verdictWord(up.Valid))
				continue
			case dxml.HealthRecovered:
				how := "snapshot rebuild"
				if up.Resumed {
					how = "log-suffix replay"
				}
				fmt.Fprintf(w, "live: %s: recovered at v%d by %s, verdict %s\n",
					up.Fn, up.Version, how, verdictWord(up.Valid))
				continue
			case dxml.HealthDown:
				fmt.Fprintf(w, "live: %s: down: %v\n", up.Fn, up.Err)
				continue
			}
			if up.Err != nil {
				fmt.Fprintf(w, "live: %s: feed error: %v\n", up.Fn, up.Err)
				continue
			}
			fmt.Fprintf(w, "live: %s v%d %s: verdict %s", up.Fn, up.Version, up.Op, verdictWord(up.Valid))
			if up.Changed {
				fmt.Fprintf(w, " (transition to %s)", verdictWord(up.Valid))
			}
			fmt.Fprintln(w)
			if showStats {
				fmt.Fprintf(w, "  recheck: %d bytes revalidated, %d skipped; %d bytes on the wire\n",
					up.Revalidated, up.Skipped, up.WireBytes)
			}
		case <-ctx.Done():
			fmt.Fprintln(w, "live: signal received, closing sessions")
			return nil
		}
	}
}

func verdictWord(valid bool) string {
	if valid {
		return "valid"
	}
	return "invalid"
}

// writeWireLine renders one protocol's traffic, in the same format the
// in-process -stats report uses — the loopback walkthrough in the
// README diffs the two outputs directly.
func writeWireLine(b *strings.Builder, t dxml.Totals) {
	fmt.Fprintf(b, "  wire: %d messages, %d frames, %d bytes", t.Messages, t.Frames, t.Bytes)
	if t.BytesSaved > 0 {
		fmt.Fprintf(b, " (%d bytes saved by mid-transfer rejection)", t.BytesSaved)
	}
	b.WriteString("\n")
}

// validateChunkFlag rejects nonsense chunk budgets: positive budgets
// and the Unchunked sentinel (-1) are meaningful; anything below -1 is
// a typo that previously fell through as "unchunked" silently.
func validateChunkFlag(chunk int) error {
	if chunk < dxml.Unchunked {
		return fmt.Errorf("invalid -chunk %d: the budget is a positive byte count, 0 (default %d), or -1 (unchunked)",
			chunk, dxml.DefaultChunkSize)
	}
	return nil
}

// validateWindowFlag rejects nonsense credit windows at flag time with
// the library's typed sentinel: a window is a positive chunk count;
// zero and negatives would stall every transfer before its first
// chunk, so they are refused before anything dials.
func validateWindowFlag(window int) error {
	if window <= 0 {
		return fmt.Errorf("invalid -window %d: the credit window is a positive chunk count (default %d): %w",
			window, dxml.DefaultWindow, dxml.ErrInvalidWindow)
	}
	return nil
}
