package p2p

import (
	"math/rand"
	"net"
	"strings"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// serveFederation hosts a network's peers on an ephemeral loopback port
// and returns a second network — same kernel, same global type, no
// local documents — whose Transport is a TCP session to it. This is the
// `dxml serve` / `dxml join` topology in miniature.
func serveFederation(t testing.TB, served *Network) (*Network, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := served.ServeTCP(ln)
	joined := NewNetwork(served.Kernel, served.GlobalType)
	joined.ChunkSize = served.ChunkSize
	joined.Window = served.Window
	addrs := map[string]string{}
	for _, fn := range served.Kernel.Funcs() {
		addrs[fn] = host.Addr().String()
	}
	sess, err := joined.DialTCP(addrs)
	if err != nil {
		host.Close()
		t.Fatal(err)
	}
	joined.Transport = sess
	return joined, func() {
		sess.Close()
		host.Close()
	}
}

// TestTCPDifferential is the acceptance criterion of the wire
// transport: on the differential corpus (valid and mutated federations
// across chunk sizes and credit windows), a
// federation validated over real TCP loopback produces verdicts,
// message counts, frame counts, and byte totals — including
// Stats.BytesSaved on mid-transfer rejections — identical to the
// in-process transport. Window 1 degenerates to the old stop-and-wait
// wire, so trial coverage includes it explicitly.
func TestTCPDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	chunks := []int{16, 4096, Unchunked}
	windows := []int{1, 4, 32}
	for trial := 0; trial < 12; trial++ {
		sizes := []int{r.Intn(4), r.Intn(4), r.Intn(4)}
		mutateAt := -1
		if trial%2 == 1 {
			mutateAt = r.Intn(4)
		}
		chunk := chunks[trial%len(chunks)]
		window := windows[(trial/2)%len(windows)]
		build := func() *Network {
			n, typing := eurostatSetup(t)
			n.ChunkSize = chunk
			n.Window = window
			attachValidDocs(t, n, typing, sizes)
			if mutateAt >= 0 {
				// Same seed per transport => identical mutation.
				mr := rand.New(rand.NewSource(int64(trial)))
				mutateTree(mr, n.Peers[n.Kernel.Funcs()[mutateAt]].Doc)
			}
			return n
		}

		local := build()
		localDist, err := local.ValidateDistributed()
		if err != nil {
			t.Fatal(err)
		}
		localDistStats := local.Stats.Totals()
		localCent, err := local.ValidateCentralized()
		if err != nil {
			t.Fatal(err)
		}
		localStats := local.Stats.Totals()

		served := build()
		remote, shutdown := serveFederation(t, served)
		remoteDist, err := remote.ValidateDistributed()
		if err != nil {
			t.Fatal(err)
		}
		remoteDistStats := remote.Stats.Totals()
		remoteCent, err := remote.ValidateCentralized()
		if err != nil {
			t.Fatal(err)
		}
		remoteStats := remote.Stats.Totals()
		shutdown()

		if localDist != remoteDist || localCent != remoteCent {
			t.Fatalf("trial %d (chunk=%d window=%d): verdicts differ across transports: in-process dist=%v cent=%v, tcp dist=%v cent=%v",
				trial, chunk, window, localDist, localCent, remoteDist, remoteCent)
		}
		// The distributed round ships only verdicts; on valid federations
		// the count is exact (short-circuited rounds are scheduling-
		// dependent on every transport, so only the verdict is pinned).
		if localDist && localDistStats != remoteDistStats {
			t.Fatalf("trial %d: distributed stats differ: in-process %+v, tcp %+v",
				trial, localDistStats, remoteDistStats)
		}
		// Centralized deltas must match byte for byte: message envelopes,
		// chunk frames, delivered bytes, and bytes saved by rejection.
		localCentDelta := diffTotals(localStats, localDistStats)
		remoteCentDelta := diffTotals(remoteStats, remoteDistStats)
		if localDist && localCentDelta != remoteCentDelta {
			t.Fatalf("trial %d (chunk=%d window=%d): centralized stats differ:\n in-process %+v\n tcp        %+v",
				trial, chunk, window, localCentDelta, remoteCentDelta)
		}
		if !localDist {
			// The distributed deltas are scheduling-dependent, but the
			// centralized protocol is deterministic even on rejection:
			// compare its deltas directly.
			if localCentDelta != remoteCentDelta {
				t.Fatalf("trial %d (chunk=%d window=%d): centralized stats differ on invalid federation:\n in-process %+v\n tcp        %+v",
					trial, chunk, window, localCentDelta, remoteCentDelta)
			}
		}
	}
}

func diffTotals(after, before Totals) Totals {
	return Totals{
		Messages:    after.Messages - before.Messages,
		Frames:      after.Frames - before.Frames,
		Bytes:       after.Bytes - before.Bytes,
		BytesSaved:  after.BytesSaved - before.BytesSaved,
		Revalidated: after.Revalidated - before.Revalidated,
		Skipped:     after.Skipped - before.Skipped,
		Reconnects:  after.Reconnects - before.Reconnects,
	}
}

// TestWindowInvariantTotals pins the credit window as a pure latency
// knob: the same federation validated centrally at windows 1, 2, 8 and
// 32 produces identical verdicts, Messages, Frames, Bytes and
// BytesSaved on both transports — window 1 reproducing the old
// stop-and-wait totals byte for byte. Accounting is receiver-side on
// consumed chunks, so pipelining depth must never leak into Stats.
func TestWindowInvariantTotals(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		var baseline *Totals
		for _, window := range []int{1, 2, 8, 32} {
			build := func() *Network {
				n, typing := eurostatSetup(t)
				n.ChunkSize = 64
				n.Window = window
				attachValidDocs(t, n, typing, []int{2, 1, 3})
				if mutate {
					n.Peers["f0"].Doc = xmltree.MustParse(typing[0].Starts[0] + "(zz)")
				}
				return n
			}

			local := build()
			localOK, err := local.ValidateCentralized()
			if err != nil {
				t.Fatal(err)
			}
			localTot := local.Stats.Totals()

			served := build()
			remote, shutdown := serveFederation(t, served)
			remoteOK, err := remote.ValidateCentralized()
			shutdown()
			if err != nil {
				t.Fatal(err)
			}
			remoteTot := remote.Stats.Totals()

			if localOK != remoteOK || localOK == mutate {
				t.Fatalf("mutate=%v window=%d: verdicts in-process=%v tcp=%v", mutate, window, localOK, remoteOK)
			}
			if localTot != remoteTot {
				t.Fatalf("mutate=%v window=%d: totals differ across transports:\n in-process %+v\n tcp        %+v",
					mutate, window, localTot, remoteTot)
			}
			if baseline == nil {
				baseline = &remoteTot
			} else if remoteTot != *baseline {
				t.Fatalf("mutate=%v window=%d: totals differ from window=1 baseline:\n window=1 %+v\n window=%d %+v",
					mutate, window, *baseline, window, remoteTot)
			}
		}
	}
}

// TestTCPBoundedDelivery re-runs the mid-transfer rejection bound over
// real sockets: rejecting an invalid first fragment must leave almost
// all of a huge later fragment unshipped, with the sender halted by the
// reject frame.
func TestTCPBoundedDelivery(t *testing.T) {
	served, typing := eurostatSetup(t)
	served.ChunkSize = 64
	attachValidDocs(t, served, typing, []int{1, 1, 2000})
	served.Peers["f0"].Doc = xmltree.MustParse(typing[0].Starts[0] + "(zz)")
	remote, shutdown := serveFederation(t, served)
	defer shutdown()
	ok, err := remote.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("invalid federation accepted")
	}
	tot := remote.Stats.Totals()
	fatSize := served.Peers["f3"].Doc.XMLSize()
	if tot.Bytes >= fatSize/10 {
		t.Errorf("mid-transfer rejection delivered %d bytes; the 2000-entry fragment alone is %d", tot.Bytes, fatSize)
	}
	if tot.BytesSaved <= fatSize/2 {
		t.Errorf("BytesSaved = %d, expected most of the %d-byte fat fragment", tot.BytesSaved, fatSize)
	}
}

// TestTCPCollaborativeEditing drives UpdatePeer verdicts remotely: a
// remote kernel peer can run the distributed protocol after a hosted
// peer's document was edited in place (sources read the live document).
func TestTCPLiveEdits(t *testing.T) {
	served, typing := eurostatSetup(t)
	attachValidDocs(t, served, typing, []int{2, 2, 2})
	remote, shutdown := serveFederation(t, served)
	defer shutdown()
	ok, err := remote.ValidateDistributed()
	if err != nil || !ok {
		t.Fatalf("valid federation rejected: %v %v", ok, err)
	}
	// Corrupt a hosted document in place; the host serves the edit.
	served.Peers["f2"].Doc = xmltree.MustParse(typing[2].Starts[0] + "(nationalIndex(country))")
	ok, err = remote.ValidateDistributed()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("federation with corrupted hosted document accepted")
	}
	ok, err = remote.ValidateCentralized()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("centralized validation over TCP accepted the corrupted document")
	}
}

// TestDialTCPRejectsIncompleteFederation: joining with an unmapped
// docking point fails fast.
func TestDialTCPErrors(t *testing.T) {
	served, typing := eurostatSetup(t)
	attachValidDocs(t, served, typing, []int{1, 1, 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := served.ServeTCP(ln)
	defer host.Close()
	joined := NewNetwork(served.Kernel, served.GlobalType)
	if _, err := joined.DialTCP(map[string]string{"f0": host.Addr().String()}); err == nil {
		t.Error("incomplete address map should fail")
	}
	if _, err := joined.DialTCP(map[string]string{
		"f0": "127.0.0.1:1", "f1": "127.0.0.1:1", "f2": "127.0.0.1:1", "f3": "127.0.0.1:1",
	}); err == nil {
		t.Error("dial to a dead address should fail")
	}
}

// TestDigestMismatchRefusesJoin: a join running a different design than
// the serve is refused at the hello, before any fragment moves.
func TestDigestMismatchRefusesJoin(t *testing.T) {
	served, typing := eurostatSetup(t)
	attachValidDocs(t, served, typing, []int{1, 1, 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := served.ServeTCP(ln)
	defer host.Close()
	// A joiner whose kernel differs: the digest differs, the hello fails.
	other := NewNetwork(axml.MustParseKernel("eurostat(f0 f1)"), served.GlobalType)
	_, err = transport.Dial(host.Addr().String(), transport.Config{Digest: other.Digest(), Chunk: 64})
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("mismatched design should be refused at hello, got %v", err)
	}
}
