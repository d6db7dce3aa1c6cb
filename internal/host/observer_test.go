package host

import (
	"context"
	"net"
	"testing"
	"time"

	"dxml/internal/flight"
	"dxml/internal/p2p"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// serveNetwork registers the network's own peers as one tenant of a
// fresh registry under cfg and serves the registry over TCP.
func serveNetwork(t *testing.T, cfg Config, name string, n *p2p.Network) (*Registry, *Server) {
	t.Helper()
	reg := NewRegistry(cfg)
	err := reg.Register(Design{Name: name, Digest: n.Digest(),
		Build: func() (map[string]transport.Source, int64, error) {
			return n.HostSources(), n.ResidentEstimate(), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, ln, nil)
	t.Cleanup(func() { srv.Close() })
	return reg, srv
}

// TestMetricsMatchClientStatsLive is the live half of
// TestMetricsMatchClientStats: a subscription served by a registry
// host, its snapshot, the edits it forwards and the verdict updates the
// kernel peer reports back are counted by the tenant exactly as the
// client's Stats counts them.
func TestMetricsMatchClientStatsLive(t *testing.T) {
	served := miniNetwork(7, 20)
	ed, err := served.AttachEditor("f7")
	if err != nil {
		t.Fatal(err)
	}
	reg, srv := serveNetwork(t, Config{}, "design-7", served)

	n := miniNetwork(7, 20)
	sess, err := n.DialTCP(map[string]string{"f7": srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	n.Transport = sess
	lv, err := n.OpenLive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	const edits = 5
	for i := 0; i < edits; i++ {
		if _, err := ed.InsertChild(nil, 0, xmltree.Leaf("a")); err != nil {
			t.Fatal(err)
		}
		select {
		case up := <-lv.Updates():
			if up.Err != nil || !up.Valid {
				t.Fatalf("update %d: %+v", i, up)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no update for edit %d", i)
		}
	}
	// A verdict round on the same session is a barrier: the host reads
	// the last verdict update before the verdict request it answers.
	if v, err := n.ValidateDistributed(); err != nil || !v {
		t.Fatalf("distributed: v=%v err=%v", v, err)
	}
	stats := n.Stats.Totals()
	tm := reg.Metrics().Tenants["design-7"].Counters
	if int(tm.Messages) != stats.Messages || int(tm.Frames) != stats.Frames || int(tm.Bytes) != stats.Bytes {
		t.Errorf("tenant counters (msg=%d frames=%d bytes=%d) != client stats (msg=%d frames=%d bytes=%d)",
			tm.Messages, tm.Frames, tm.Bytes, stats.Messages, stats.Frames, stats.Bytes)
	}
	if tm.Edits != edits || tm.Verdicts != 1 {
		t.Errorf("edits=%d verdicts=%d, want %d/1", tm.Edits, tm.Verdicts, edits)
	}
}

// TestCountedEqualsCaptured pins that a host counts exactly what it
// captures: with a flight recorder observing the registry, a tenant's
// chunk frames and bytes equal the recorder's outbound chunk frames of
// that tenant's sessions — on a clean round, and on a round the kernel
// peer rejects mid-transfer while the host has chunks in flight.
// Another tenant's traffic runs beside it and must count only there.
func TestCountedEqualsCaptured(t *testing.T) {
	for _, rejected := range []bool{false, true} {
		name := map[bool]string{false: "clean", true: "rejected"}[rejected]
		t.Run(name, func(t *testing.T) {
			served := miniNetwork(7, 2000)
			if rejected {
				// A b leaf early in the fragment: the global type
				// rejects it in the first chunk.
				doc := served.Peers["f7"].Doc
				kids := append([]*xmltree.Tree{xmltree.Leaf("a"), xmltree.Leaf("b")}, doc.Children...)
				served.Peers["f7"].Doc = &xmltree.Tree{Label: doc.Label, Children: kids}
			}
			rec := flight.NewRecorder(flight.Options{RingFrames: 4096})
			reg, srv := serveNetwork(t, Config{Observer: rec}, "design-7", served)
			if err := reg.Register(miniDesign(8, 500)); err != nil {
				t.Fatal(err)
			}

			round := func(n *p2p.Network, want bool) uint64 {
				n.ChunkSize = 64
				sess, err := n.DialTCP(map[string]string{n.Kernel.Funcs()[0]: srv.Addr().String()})
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				n.Transport = sess
				if v, err := n.ValidateCentralized(); err != nil || v != want {
					t.Fatalf("centralized: v=%v err=%v, want %v", v, err, want)
				}
				return sess.(transport.Multi)[n.Kernel.Funcs()[0]].(*transport.Conn).TraceID()
			}
			trace := round(miniNetwork(7, 0), !rejected)
			round(miniNetwork(8, 0), true)
			srv.Close() // waits for every session: nothing is in flight

			var frames, bytes int64
			for _, f := range rec.Frames() {
				info, err := transport.DecodeFrame(f.Wire)
				if err != nil {
					t.Fatal(err)
				}
				if f.Sess == trace && f.Dir == flight.Out && info.Type == "chunk" {
					frames++
					bytes += int64(f.Orig - 9) // length prefix, type, stream id
				}
			}
			if rec.Total() > 4096 {
				t.Fatalf("ring overflowed (%d frames): the capture is incomplete", rec.Total())
			}
			// Centralized rounds send no verdicts: the tenant's messages
			// are its delivered fragments' envelopes, and every other
			// frame and byte is a chunk's.
			tm := reg.Metrics().Tenants["design-7"].Counters
			chunkFrames := tm.Frames - tm.Messages
			chunkBytes := tm.Bytes - tm.Messages*int64(transport.EnvelopeCost("f7"))
			if frames == 0 || chunkFrames != frames || chunkBytes != bytes {
				t.Fatalf("tenant counts %d chunk frames of %d bytes, recorder captured %d of %d",
					chunkFrames, chunkBytes, frames, bytes)
			}
			if size := int64(served.Peers["f7"].Doc.XMLSize()); rejected && bytes >= size {
				t.Fatalf("rejected round shipped all %d bytes", size)
			}
		})
	}
}
