package p2p

import (
	"net"
	"sync"
	"testing"

	"dxml/internal/host"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// goodIndex and badIndex are a valid and an invalid country-bureau entry.
func goodIndex() *xmltree.Tree {
	return xmltree.New("nationalIndex", xmltree.Leaf("country"), xmltree.Leaf("Good"),
		xmltree.New("index", xmltree.Leaf("value"), xmltree.Leaf("year")))
}

func badIndex() *xmltree.Tree { return xmltree.New("nationalIndex", xmltree.Leaf("country")) }

// TestServedBytesFollowDocument pins the resource peers' serialization
// cache to the document: after each way a peer's document can change —
// a direct Doc assignment, UpdatePeer, UpdatePeerCentralized admitted
// and refused, and ReplaceSubtree/InsertChild/DeleteSubtree on an
// editor — a centralized round in process, over TCP, and through a host
// registry tenant must produce the verdict and traffic totals of a fresh
// network built over the peers' current documents, whose peers have
// never shipped anything.
func TestServedBytesFollowDocument(t *testing.T) {
	served, typing := eurostatSetup(t)
	served.ChunkSize = 64
	attachValidDocs(t, served, typing, []int{3, 4, 2})

	tcp, shutdown := serveFederation(t, served)
	defer shutdown()

	reg := host.NewRegistry(host.Config{})
	err := reg.Register(host.Design{Name: "eurostat", Digest: served.Digest(),
		Build: func() (map[string]transport.Source, int64, error) {
			return served.HostSources(), served.ResidentEstimate(), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.Session(served.Digest(), served.chunkBudget())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tenant := NewNetwork(served.Kernel, served.GlobalType)
	tenant.ChunkSize = served.ChunkSize
	tenant.Transport = sess

	routes := []struct {
		name string
		n    *Network
	}{{"inproc", served}, {"tcp", tcp}, {"registry", tenant}}
	check := func(stage string, wantValid bool) {
		t.Helper()
		fresh := NewNetwork(served.Kernel, served.GlobalType)
		fresh.ChunkSize = served.ChunkSize
		for fn, p := range served.Peers {
			if err := fresh.AddPeer(fn, p.CurrentDoc().Clone(), p.Type); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fresh.ValidateCentralized()
		if err != nil {
			t.Fatalf("%s: fresh round: %v", stage, err)
		}
		if want != wantValid {
			t.Fatalf("%s: fresh round valid=%v, the stage makes it %v", stage, want, wantValid)
		}
		wantTotals := fresh.Stats.Totals()
		for _, r := range routes {
			before := r.n.Stats.Totals()
			got, err := r.n.ValidateCentralized()
			if err != nil {
				t.Fatalf("%s/%s: %v", stage, r.name, err)
			}
			if d := diffTotals(r.n.Stats.Totals(), before); got != want || d != wantTotals {
				t.Errorf("%s/%s: valid=%v totals %+v, fresh network: valid=%v totals %+v",
					stage, r.name, got, d, want, wantTotals)
			}
		}
	}

	check("initial", true)

	root1, root2, root3 := typing[1].Starts[0], typing[2].Starts[0], typing[3].Starts[0]
	orig := served.Peers["f2"].Doc
	served.Peers["f2"].Doc = countryDoc(root2, 6, true)
	check("Doc assigned", true)
	bad := countryDoc(root2, 10, true)
	bad.Children[5] = badIndex()
	served.Peers["f2"].Doc = bad
	check("Doc assigned invalid", false)
	served.Peers["f2"].Doc = orig
	check("Doc restored", true)

	if ok, _, err := served.UpdatePeer("f1", countryDoc(root1, 5, false)); err != nil || !ok {
		t.Fatalf("UpdatePeer: admitted=%v err=%v", ok, err)
	}
	check("UpdatePeer", true)

	if ok, err := served.UpdatePeerCentralized("f3", countryDoc(root3, 7, false)); err != nil || !ok {
		t.Fatalf("UpdatePeerCentralized: admitted=%v err=%v", ok, err)
	}
	check("UpdatePeerCentralized admitted", true)
	refused := countryDoc(root3, 8, false)
	refused.Children[2] = badIndex()
	if ok, err := served.UpdatePeerCentralized("f3", refused); err != nil || ok {
		t.Fatalf("UpdatePeerCentralized: admitted=%v err=%v, want refused", ok, err)
	}
	check("UpdatePeerCentralized refused", true)

	ed, err := served.AttachEditor("f2")
	if err != nil {
		t.Fatal(err)
	}
	check("editor attached", true)
	if _, err := ed.ReplaceSubtree([]int{1}, badIndex()); err != nil {
		t.Fatal(err)
	}
	check("ReplaceSubtree invalid", false)
	if _, err := ed.ReplaceSubtree([]int{1}, goodIndex()); err != nil {
		t.Fatal(err)
	}
	check("ReplaceSubtree valid", true)
	if _, err := ed.InsertChild(nil, 1, goodIndex()); err != nil {
		t.Fatal(err)
	}
	check("InsertChild", true)
	if _, err := ed.DeleteSubtree([]int{0}); err != nil {
		t.Fatal(err)
	}
	check("DeleteSubtree", true)
}

// TestConcurrentRoundsWhileEditing runs centralized rounds from four TCP
// sessions against one host while an editor keeps publishing edits to
// one of its peers. Every edit keeps the federation valid, and each
// round must ship exactly one published version of the edited document:
// its delivered bytes are those of the base or the grown document,
// never a mix. Run it under the race detector.
func TestConcurrentRoundsWhileEditing(t *testing.T) {
	served, typing := eurostatSetup(t)
	served.ChunkSize = 256
	attachValidDocs(t, served, typing, []int{30, 30, 30})
	base := served.Peers["f2"].Doc.XMLSize()
	grown := served.Peers["f2"].Doc.Clone()
	grown.Children = append([]*xmltree.Tree{goodIndex()}, grown.Children...)
	growth := grown.XMLSize() - base
	if _, err := served.ValidateCentralized(); err != nil {
		t.Fatal(err)
	}
	baseBytes := served.Stats.Totals().Bytes

	ed, err := served.AttachEditor("f2")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := served.ServeTCP(ln)
	defer h.Close()

	const sessions, rounds = 4, 12
	joined := make([]*Network, sessions)
	for i := range joined {
		joined[i] = NewNetwork(served.Kernel, served.GlobalType)
		joined[i].ChunkSize = served.ChunkSize
		addrs := map[string]string{}
		for _, fn := range served.Kernel.Funcs() {
			addrs[fn] = h.Addr().String()
		}
		sess, err := joined[i].DialTCP(addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		joined[i].Transport = sess
	}

	stop := make(chan struct{})
	edited := make(chan int)
	go func() {
		edits := 0
		defer func() { edited <- edits }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ed.InsertChild(nil, 0, goodIndex()); err != nil {
				t.Errorf("InsertChild: %v", err)
				return
			}
			if _, err := ed.DeleteSubtree([]int{0}); err != nil {
				t.Errorf("DeleteSubtree: %v", err)
				return
			}
			edits += 2
		}
	}()

	var wg sync.WaitGroup
	for s, n := range joined {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				before := n.Stats.Totals()
				ok, err := n.ValidateCentralized()
				if err != nil || !ok {
					t.Errorf("session %d round %d: valid=%v err=%v", s, r, ok, err)
					return
				}
				d := diffTotals(n.Stats.Totals(), before)
				if d.Bytes != baseBytes && d.Bytes != baseBytes+growth || d.BytesSaved != 0 {
					t.Errorf("session %d round %d: shipped %d bytes (saved %d), want %d or %d",
						s, r, d.Bytes, d.BytesSaved, baseBytes, baseBytes+growth)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-edited; n == 0 {
		t.Error("the editor published nothing while the rounds ran")
	}
}
