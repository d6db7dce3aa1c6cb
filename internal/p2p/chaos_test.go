package p2p

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dxml/internal/transport"
	"dxml/internal/transport/chaos"
	"dxml/internal/xmltree"
)

// This file is the fault-tolerance acceptance suite: the differential
// chaos corpus (the headline invariant — under any injected fault
// schedule the live session converges to the fault-free run's verdicts,
// traffic totals, and replica state, or fails with a clean typed
// error), the kill-and-reconnect suffix-resume pin over real sockets,
// and the compaction fallback.

// chaosReconnect is the recovery policy the chaos corpus runs under:
// fast, bounded, and seeded so backoff jitter replays.
func chaosReconnect(seed int64) ReconnectPolicy {
	return ReconnectPolicy{MaxAttempts: 12, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: seed}
}

// chaosLiveRun opens a live session over kernelSide's transport, arms
// the schedule (nil for a fault-free baseline), drives the seeded edit
// script, and returns the verdict sequence, the run's traffic delta,
// and the final extension serialization.
func chaosLiveRun(t *testing.T, served, kernelSide *Network, sched *chaos.Schedule, steps int) ([]bool, Totals, string) {
	t.Helper()
	pre := kernelSide.Stats.Totals()
	lv, err := kernelSide.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if !lv.Valid() {
		t.Fatal("initial live verdict should be valid")
	}
	if sched != nil {
		sched.Arm(true)
	}
	verdicts := editScript(t, 443, steps, served, lv)
	var ext bytes.Buffer
	lv.Extension().ToXML(&ext)
	return verdicts, diffTotals(kernelSide.Stats.Totals(), pre), ext.String()
}

// TestChaosDifferential is the headline invariant of the
// fault-tolerance layer: the same seeded edit script runs fault-free
// and under seeded fault schedules (drops, delays, truncated snapshot
// chunks, stalled acks, duplicated edits) over both transports, and
// every faulted run converges to the fault-free run — identical verdict
// after every edit, identical extension state, and identical traffic
// totals (recovery is visible only in Totals.Reconnects), because
// suffix resumption re-ships nothing and redelivered edits are skipped
// by version.
func TestChaosDifferential(t *testing.T) {
	const steps = 40
	baseNet := liveSetup(t, 64)
	baseVerdicts, baseTotals, baseExt := chaosLiveRun(t, baseNet, baseNet, nil, steps)

	check := func(t *testing.T, verdicts []bool, totals Totals, ext string) {
		t.Helper()
		if len(verdicts) != len(baseVerdicts) {
			t.Fatalf("verdict sequences diverge in length: %d vs %d", len(verdicts), len(baseVerdicts))
		}
		for i := range verdicts {
			if verdicts[i] != baseVerdicts[i] {
				t.Fatalf("verdict %d differs from fault-free run: %v vs %v", i, verdicts[i], baseVerdicts[i])
			}
		}
		faulted := totals
		faulted.Reconnects = 0
		if faulted != baseTotals {
			t.Fatalf("faulted traffic differs from fault-free run:\nfaulted    %+v\nfault-free %+v", faulted, baseTotals)
		}
		if ext != baseExt {
			t.Fatal("faulted run's final extension differs from the fault-free run")
		}
	}

	reconnects := 0
	// Each seed runs at a different credit window — 1 is the old
	// stop-and-wait wire, 8 and 32 pipeline — and every faulted run must
	// still converge to the same fault-free baseline: the window is
	// invisible to verdicts, traffic totals, and replica state even under
	// drops, stalls, and duplicated acks.
	windows := []int{1, 8, 32}
	for i, seed := range []int64{3, 17, 2026} {
		window := windows[i]
		sched := chaos.Seeded(seed, 0.12, 5).SetDelay(time.Millisecond).Arm(false)
		t.Run("inproc", func(t *testing.T) {
			n := liveSetup(t, 64)
			n.Window = window
			inner, err := n.pipeSession()
			if err != nil {
				t.Fatal(err)
			}
			defer inner.Close()
			n.Transport = chaos.Wrap(inner, sched)
			n.Redial = func() (transport.LiveSession, error) {
				s, err := n.pipeSession()
				if err != nil {
					return nil, err
				}
				return chaos.Wrap(s, sched), nil
			}
			n.Reconnect = chaosReconnect(seed)
			verdicts, totals, ext := chaosLiveRun(t, n, n, sched, steps)
			check(t, verdicts, totals, ext)
			reconnects += totals.Reconnects
		})
		sched = chaos.Seeded(seed, 0.12, 5).SetDelay(time.Millisecond).Arm(false)
		t.Run("tcp", func(t *testing.T) {
			served := liveSetup(t, 64)
			served.Window = window
			joined, shutdown := serveFederation(t, served)
			defer shutdown()
			joined.Transport = chaos.Wrap(joined.Transport, sched)
			redial := joined.Redial
			joined.Redial = func() (transport.LiveSession, error) {
				s, err := redial()
				if err != nil {
					return nil, err
				}
				return chaos.Wrap(s, sched), nil
			}
			joined.Reconnect = chaosReconnect(seed)
			verdicts, totals, ext := chaosLiveRun(t, served, joined, sched, steps)
			check(t, verdicts, totals, ext)
			reconnects += totals.Reconnects
		})
	}
	if reconnects == 0 {
		t.Fatal("no fault schedule injected a drop: the corpus is not exercising recovery")
	}
}

// TestChaosDuplicateAckNeverDoubleCredits replays cumulative acks on
// the real TCP wire mid-transfer: a scripted schedule retransmits eight
// acks during a centralized validation, and the run must match the
// fault-free run's verdict and traffic totals exactly. A duplicated ack
// carries a count the sender has already credited, so it grants no
// credit, ships no extra chunk, and needs no recovery — Reconnects
// stays zero and not one counter moves.
func TestChaosDuplicateAckNeverDoubleCredits(t *testing.T) {
	build := func() *Network {
		n, typing := eurostatSetup(t)
		n.ChunkSize = 64
		n.Window = 4
		attachValidDocs(t, n, typing, []int{2, 2, 40})
		return n
	}
	baseRemote, shutdown := serveFederation(t, build())
	ok, err := baseRemote.ValidateCentralized()
	shutdown()
	if err != nil || !ok {
		t.Fatalf("fault-free run: ok=%v err=%v", ok, err)
	}
	baseTotals := baseRemote.Stats.Totals()

	dups := make([]chaos.Fault, 8)
	for i := range dups {
		dups[i] = chaos.FaultDuplicate
	}
	sched := chaos.Script(dups...)
	joined, shutdown := serveFederation(t, build())
	defer shutdown()
	joined.Transport = chaos.Wrap(joined.Transport, sched)
	ok, err = joined.ValidateCentralized()
	if err != nil || !ok {
		t.Fatalf("duplicated-ack run: ok=%v err=%v", ok, err)
	}
	if got := joined.Stats.Totals(); got != baseTotals {
		t.Fatalf("duplicated acks perturbed traffic totals:\nfaulted    %+v\nfault-free %+v", got, baseTotals)
	}
	if sched.Consumed() != len(dups) {
		t.Fatalf("only %d/%d scripted ack duplications fired; the corpus is not exercising the credit path", sched.Consumed(), len(dups))
	}
}

// countingListener counts host-to-client payload bytes, so the suffix
// resume's catch-up cost is measured on the real wire, not inferred
// from protocol counters.
type countingListener struct {
	net.Listener
	sent atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, sent: &l.sent}, nil
}

type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// TestKillAndReconnectResumesBySuffix kills a live TCP session under a
// ~10⁵-node fragment, edits through the outage, and requires recovery
// to catch up by log suffix: every docking point reports
// HealthRecovered with Resumed=true, the outage edits flow after
// recovery, and the bytes on the wire for the entire reconnect are a
// small fraction of what re-shipping the snapshot would cost.
func TestKillAndReconnectResumesBySuffix(t *testing.T) {
	n, typing := eurostatSetup(t)
	attachValidDocs(t, n, typing, []int{33000, 2, 1})
	n.ChunkSize = 4096
	for _, fn := range n.Kernel.Funcs() {
		if _, err := n.AttachEditor(fn); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	host := n.ServeTCP(cl)
	defer host.Close()
	joined := NewNetwork(n.Kernel, n.GlobalType)
	joined.ChunkSize = n.ChunkSize
	addrs := map[string]string{}
	for _, fn := range n.Kernel.Funcs() {
		addrs[fn] = host.Addr().String()
	}
	sess, err := joined.DialTCP(addrs)
	if err != nil {
		t.Fatal(err)
	}
	joined.Transport = sess
	joined.Reconnect = ReconnectPolicy{MaxAttempts: 20, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 7}
	lv, err := joined.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if !lv.Valid() {
		t.Fatal("initial verdict should be valid")
	}
	snapshotBytes := cl.sent.Load()
	ed := n.Peers["f1"].Live
	if _, err := ed.ReplaceSubtree([]int{17000, 1}, xmltree.Leaf("Good")); err != nil {
		t.Fatal(err)
	}
	if up := awaitEditUpdate(t, lv, 0); up.Fn != "f1" || !up.Valid {
		t.Fatalf("pre-kill edit: %+v", up)
	}

	// Kill every connection of the live session, then edit through the
	// outage: the editor just logs, and the kernel peer must catch up.
	preKill := cl.sent.Load()
	sess.Close()
	const outageEdits = 5
	for i := 0; i < outageEdits; i++ {
		if _, err := ed.ReplaceSubtree([]int{i, 1}, xmltree.Leaf("Good")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the outage edits *and* for every docking point's own
	// recovery: each feed reconnects on its own backoff schedule, so f1's
	// edits can land while a sibling is still between attempts.
	funcs := n.Kernel.Funcs()
	recovered := map[string]bool{}
	applied := 0
	deadline := time.After(20 * time.Second)
	for applied < outageEdits || len(recovered) < len(funcs) {
		select {
		case up, ok := <-lv.Updates():
			if !ok {
				t.Fatal("updates closed during recovery")
			}
			if up.Err != nil {
				t.Fatalf("recovery failed: %v", up.Err)
			}
			switch up.Health {
			case HealthRecovered:
				if !up.Resumed {
					t.Fatalf("%s rebuilt from a fresh snapshot; want suffix resume", up.Fn)
				}
				recovered[up.Fn] = true
			case HealthLive:
				if up.Fn != "f1" {
					t.Fatalf("edit update from %s, edited f1", up.Fn)
				}
				if !up.Valid {
					t.Fatalf("catch-up edit %d flipped the verdict: %+v", applied, up)
				}
				applied++
			}
		case <-deadline:
			t.Fatalf("caught up %d/%d edits (recovered: %v)", applied, outageEdits, recovered)
		}
	}
	// Every feed reported HealthRecovered, and recovery clears the stale
	// mark before it reports: any docking point still listed here is a
	// recovery the product dropped.
	if stale := lv.Stale(); len(stale) != 0 {
		t.Fatalf("docking points still stale after recovery: %v", stale)
	}
	if joined.Stats.Totals().Reconnects == 0 {
		t.Fatal("no reconnect recorded")
	}
	// The acceptance pin: catch-up cost ≪ snapshot cost. The entire
	// reconnect — hellos, resume handshakes, and the outage edits — must
	// be a sliver of the megabyte the initial snapshots shipped.
	catchUp := cl.sent.Load() - preKill
	if catchUp*10 >= snapshotBytes {
		t.Fatalf("catch-up shipped %d bytes; initial snapshots were %d (want <10%%)", catchUp, snapshotBytes)
	}
	// Post-recovery state matches from-scratch validation.
	extDoc, err := n.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := n.GlobalMachine().ValidateTree(extDoc) == nil
	if lv.Valid() != want {
		t.Fatalf("post-recovery verdict %v, from-scratch %v", lv.Valid(), want)
	}
	frag, err := lv.Fragment("f1")
	if err != nil {
		t.Fatal(err)
	}
	var got, exp bytes.Buffer
	frag.ToXML(&got)
	ed.Tree().ToXML(&exp)
	if got.String() != exp.String() {
		t.Fatal("post-recovery replica differs from the editing site")
	}
}

// TestCompactionFallbackRebuilds: when the editing site compacts its
// log past a dropped subscriber's version, suffix resumption is
// impossible and recovery must fall back to a fresh snapshot cut —
// HealthRecovered with Resumed=false — after which the replica and the
// verdict are exact again.
func TestCompactionFallbackRebuilds(t *testing.T) {
	n := liveSetup(t, 64)
	inner, err := n.pipeSession()
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	// One scripted drop: it fires on f1's first armed NextEdit call —
	// the one issued right after f1 delivers its first edit. Only f1's
	// feed goes through the chaos session: a sibling drain whose first
	// NextEdit is scheduled late must not draw the drop instead.
	sched := chaos.Script(chaos.FaultDrop).Arm(false)
	route := transport.Multi{}
	for _, fn := range n.Kernel.Funcs() {
		route[fn] = inner
	}
	route["f1"] = chaos.Wrap(inner, sched)
	n.Transport = route
	// A slow first backoff leaves room to compact the log before the
	// resubscription happens.
	n.Reconnect = ReconnectPolicy{MaxAttempts: 5, BaseDelay: 300 * time.Millisecond, MaxDelay: 600 * time.Millisecond, Seed: 3}
	lv, err := n.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	ed := n.Peers["f1"].Live
	if _, err := ed.ReplaceSubtree([]int{0}, xmltree.MustParse("nationalIndex(country Good value year)")); err != nil {
		t.Fatal(err)
	}
	up := awaitEditUpdate(t, lv, 0)
	if up.Fn != "f1" {
		t.Fatalf("update from %s, edited f1", up.Fn)
	}
	// Arm and trigger the drop with a second edit: the scripted fault
	// fires on f1's next armed NextEdit call — either the one already
	// pending (the edit is then delivered after recovery) or the one
	// right after this edit delivers. Both paths end in HealthStale.
	sched.Arm(true)
	if _, err := ed.ReplaceSubtree([]int{0}, xmltree.MustParse("nationalIndex(country Good value year)")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for stale := false; !stale; {
		select {
		case hp, ok := <-lv.Updates():
			if !ok {
				t.Fatal("updates closed early")
			}
			if hp.Err != nil {
				t.Fatalf("terminal error before recovery: %v", hp.Err)
			}
			stale = hp.Health == HealthStale && hp.Fn == "f1"
		case <-deadline:
			t.Fatal("drop never surfaced as HealthStale")
		}
	}
	// During the backoff window: more edits, then compact the whole log
	// so the dropped subscriber's version is gone.
	for i := 0; i < 3; i++ {
		if _, err := ed.ReplaceSubtree([]int{0}, xmltree.MustParse("nationalIndex(country Good value year)")); err != nil {
			t.Fatal(err)
		}
	}
	ed.Compact(ed.Version())
	if ed.Compacted() != ed.Version() {
		t.Fatalf("compaction did not take: first=%d version=%d", ed.Compacted(), ed.Version())
	}
	for {
		select {
		case hp, ok := <-lv.Updates():
			if !ok {
				t.Fatal("updates closed early")
			}
			if hp.Err != nil {
				t.Fatalf("recovery failed: %v", hp.Err)
			}
			if hp.Health != HealthRecovered {
				continue
			}
			if hp.Resumed {
				t.Fatal("recovered by suffix from a compacted log")
			}
		case <-deadline:
			t.Fatal("recovery never completed")
		}
		break
	}
	// The snapshot fallback carried the compacted-away edits: replica
	// and verdict are exact without those edits ever streaming.
	frag, err := lv.Fragment("f1")
	if err != nil {
		t.Fatal(err)
	}
	var got, exp bytes.Buffer
	frag.ToXML(&got)
	ed.Tree().ToXML(&exp)
	if got.String() != exp.String() {
		t.Fatal("rebuilt replica differs from the editing site")
	}
	extDoc, err := n.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := n.GlobalMachine().ValidateTree(extDoc) == nil
	if lv.Valid() != want {
		t.Fatalf("post-rebuild verdict %v, from-scratch %v", lv.Valid(), want)
	}
	// The feed is live again: a fresh edit flows normally.
	if _, err := ed.ReplaceSubtree([]int{0}, xmltree.MustParse("nationalIndex(country Good index(value year))")); err != nil {
		t.Fatal(err)
	}
	if up := awaitEditUpdate(t, lv, 1); up.Fn != "f1" || up.Valid != want {
		t.Fatalf("post-rebuild edit: %+v", up)
	}
}

// TestReconnectDisabledSurfacesTypedError: with no Reconnect policy
// (the default), an injected drop is a terminal, *typed* failure — a
// HealthDown update whose error chains to the injector's sentinel — and
// never a hang or a wrong verdict.
func TestReconnectDisabledSurfacesTypedError(t *testing.T) {
	n := liveSetup(t, 64)
	inner, err := n.pipeSession()
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	sched := chaos.Script(chaos.FaultDrop).Arm(false)
	n.Transport = chaos.Wrap(inner, sched)
	lv, err := n.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	ed := n.Peers["f1"].Live
	if _, err := ed.ReplaceSubtree([]int{0}, xmltree.MustParse("nationalIndex(country Good value year)")); err != nil {
		t.Fatal(err)
	}
	awaitEditUpdate(t, lv, 0) // the edit before the drop still applies
	// Arm and trigger: the drop fires on f1's next armed NextEdit call,
	// before or after this edit's delivery depending on scheduling —
	// either way the feed must end HealthDown with the typed sentinel.
	sched.Arm(true)
	if _, err := ed.ReplaceSubtree([]int{0}, xmltree.MustParse("nationalIndex(country Good value year)")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case up, ok := <-lv.Updates():
			if !ok {
				t.Fatal("updates closed without a terminal update")
			}
			if up.Health == HealthLive {
				continue // the triggering edit may deliver before the drop
			}
			if up.Health != HealthDown {
				t.Fatalf("expected HealthDown, got %+v", up)
			}
			if !errors.Is(up.Err, chaos.ErrInjected) {
				t.Fatalf("terminal error does not chain to the injected fault: %v", up.Err)
			}
			return
		case <-deadline:
			t.Fatal("injected drop never surfaced")
		}
	}
}

// TestChaosOneShotNeverWrongVerdict runs the one-shot centralized
// protocol under seeded fault schedules on both transports: every run
// must either return the fault-free verdict or fail with an error —
// never return a wrong verdict, panic, or hang.
func TestChaosOneShotNeverWrongVerdict(t *testing.T) {
	build := func(mutate bool) (*Network, func() (transport.Session, error)) {
		n, typing := eurostatSetup(t)
		n.ChunkSize = 64
		attachValidDocs(t, n, typing, []int{2, 2, 2})
		if mutate {
			n.Peers["f2"].Doc = xmltree.MustParse(typing[2].Starts[0] + "(nationalIndex(country))")
		}
		return n, nil
	}
	for _, mutate := range []bool{false, true} {
		base, _ := build(mutate)
		want, err := base.ValidateCentralized()
		if err != nil {
			t.Fatal(err)
		}
		failures := 0
		for seed := int64(1); seed <= 8; seed++ {
			sched := chaos.Seeded(seed, 0.25, 3).SetDelay(time.Millisecond)
			n, _ := build(mutate)
			inner, err := n.localSession(nil)
			if err != nil {
				t.Fatal(err)
			}
			n.Transport = chaos.Wrap(inner, sched)
			ok, err := n.ValidateCentralized()
			if err != nil {
				failures++
				continue // clean failure branch of the invariant
			}
			if ok != want {
				t.Fatalf("seed %d (mutate=%v): verdict %v under faults, fault-free %v", seed, mutate, ok, want)
			}
		}
		t.Logf("mutate=%v: %d/8 seeds failed cleanly, rest matched the fault-free verdict", mutate, failures)
	}
	// And over real sockets, with the listener-level injector (the
	// `dxml serve -chaos` seam): client retries ride over redials here,
	// so each attempt either errors cleanly or matches.
	served, typing := eurostatSetup(t)
	served.ChunkSize = 64
	attachValidDocs(t, served, typing, []int{2, 2, 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := served.ServeTCP(chaos.NewListener(ln, 11))
	defer host.Close()
	joined := NewNetwork(served.Kernel, served.GlobalType)
	joined.ChunkSize = 64
	addrs := map[string]string{}
	for _, fn := range served.Kernel.Funcs() {
		addrs[fn] = host.Addr().String()
	}
	matched, failures := 0, 0
	for attempt := 0; attempt < 8; attempt++ {
		sess, err := joined.DialTCP(addrs)
		if err != nil {
			failures++
			continue
		}
		joined.Transport = sess
		ok, err := joined.ValidateCentralized()
		sess.Close()
		joined.Transport = nil
		if err != nil {
			failures++
			continue
		}
		if !ok {
			t.Fatalf("attempt %d: valid federation rejected under listener chaos", attempt)
		}
		matched++
	}
	if matched == 0 {
		t.Fatalf("no attempt survived listener chaos (%d clean failures); injector too aggressive", failures)
	}
	t.Logf("listener chaos: %d matched, %d failed cleanly", matched, failures)
}
