package host

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dxml/internal/axml"
	"dxml/internal/p2p"
	"dxml/internal/schema"
	"dxml/internal/transport"
	"dxml/internal/xmltree"
)

// miniNetwork builds a one-docking-point federation whose digest is
// distinguished by id (the docking point's name enters the kernel tree,
// which enters the digest) and whose fragment holds `items` leaves.
func miniNetwork(id, items int) *p2p.Network {
	global := schema.MustParseDTD(schema.KindNRE, "root s\ns -> a*")
	kernel := axml.MustParseKernel(fmt.Sprintf("s(f%d)", id))
	local := schema.MustParseDTD(schema.KindNRE, "root r\nr -> a*").ToEDTD()
	doc := xmltree.New("r")
	for i := 0; i < items; i++ {
		doc.Children = append(doc.Children, xmltree.Leaf("a"))
	}
	n := p2p.NewNetwork(kernel, global.ToEDTD())
	if err := n.AddPeer(fmt.Sprintf("f%d", id), doc, local); err != nil {
		panic(err)
	}
	return n
}

// miniDesign wraps miniNetwork as a registrable Design. Build
// materializes a fresh network each residency, exactly as a host
// rebuilding an evicted design would.
func miniDesign(id, items int) Design {
	return Design{
		Name:   fmt.Sprintf("design-%d", id),
		Digest: miniNetwork(id, items).Digest(),
		Build: func() (map[string]transport.Source, int64, error) {
			n := miniNetwork(id, items)
			return n.HostSources(), n.ResidentEstimate(), nil
		},
	}
}

func drain(t testing.TB, frag transport.Fragment) []byte {
	t.Helper()
	var got []byte
	for {
		chunk, err := frag.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
}

// TestTypedRefusalsBothTransports pins the shared error contract: an
// unknown digest refuses with ErrUnknownDesign and an over-cap hello
// with ErrOverCapacity, identically over the in-process session and a
// TCP dial — and always immediately, never a hang.
func TestTypedRefusalsBothTransports(t *testing.T) {
	d := miniDesign(1, 4)
	unknown := transport.Digest("nobody registered this")

	open := map[string]func(r *Registry, digest []byte) (transport.Session, func(), error){
		"inproc": func(r *Registry, digest []byte) (transport.Session, func(), error) {
			s, err := r.Session(digest, 64)
			if err != nil {
				return nil, nil, err
			}
			return s, func() { s.Close() }, nil
		},
		"tcp": func(r *Registry, digest []byte) (transport.Session, func(), error) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(r, ln, nil)
			c, err := transport.Dial(srv.Addr().String(), transport.Config{Digest: digest, Chunk: 64})
			if err != nil {
				srv.Close()
				return nil, nil, err
			}
			return c, func() { c.Close(); srv.Close() }, nil
		},
	}
	for name, dial := range open {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry(Config{MaxSessions: 1})
			if err := reg.Register(d); err != nil {
				t.Fatal(err)
			}
			if _, _, err := dial(reg, unknown); !errors.Is(err, transport.ErrUnknownDesign) {
				t.Fatalf("unknown digest: want ErrUnknownDesign, got %v", err)
			}
			sess, done, err := dial(reg, d.Digest)
			if err != nil {
				t.Fatalf("registered digest refused: %v", err)
			}
			if v, err := sess.Verdict(context.Background(), "f1"); err != nil || !v {
				t.Fatalf("verdict over %s: v=%v err=%v", name, v, err)
			}
			if _, _, err := dial(reg, d.Digest); !errors.Is(err, transport.ErrOverCapacity) {
				t.Fatalf("second session under cap 1: want ErrOverCapacity, got %v", err)
			}
			done()
			m := reg.Metrics()
			if m.Global.Rejections != 2 {
				t.Errorf("rejections = %d, want 2", m.Global.Rejections)
			}
			if m.Global.Sessions != 1 {
				t.Errorf("sessions = %d, want 1", m.Global.Sessions)
			}
		})
	}
}

// TestEvictionLRU: with room for two resident designs, touching a third
// evicts the least recently used idle one, and the evicted design is
// rebuilt transparently on its next session.
func TestEvictionLRU(t *testing.T) {
	reg := NewRegistry(Config{MaxResidentDesigns: 2})
	designs := []Design{miniDesign(1, 2), miniDesign(2, 2), miniDesign(3, 2)}
	for _, d := range designs {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	use := func(id int, d Design) {
		t.Helper()
		s, err := reg.Session(d.Digest, 64)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if v, err := s.Verdict(context.Background(), fmt.Sprintf("f%d", id)); err != nil || !v {
			t.Fatalf("%s: v=%v err=%v", d.Name, v, err)
		}
		s.Close()
	}
	use(1, designs[0])
	use(2, designs[1])
	use(3, designs[2]) // evicts design-1 (least recently closed)
	m := reg.Metrics()
	if m.Tenants["design-1"].Resident || !m.Tenants["design-2"].Resident || !m.Tenants["design-3"].Resident {
		t.Fatalf("after third use, residency should be {2,3}: %+v", m.Tenants)
	}
	if m.Tenants["design-1"].Counters.Evictions != 1 || m.Global.Evictions != 1 {
		t.Errorf("eviction counters: tenant=%d global=%d, want 1/1",
			m.Tenants["design-1"].Counters.Evictions, m.Global.Evictions)
	}
	use(1, designs[0]) // rebuild: evicts design-2, the new LRU
	m = reg.Metrics()
	if !m.Tenants["design-1"].Resident || m.Tenants["design-2"].Resident {
		t.Fatalf("after rebuild, residency should be {1,3}: %+v", m.Tenants)
	}
	if m.Global.Evictions != 2 {
		t.Errorf("global evictions = %d, want 2", m.Global.Evictions)
	}
}

// TestEvictionSparesActiveSessions: a design with a session open is
// never evicted; when every resident design is busy, the incoming hello
// is refused over capacity instead.
func TestEvictionSparesActiveSessions(t *testing.T) {
	reg := NewRegistry(Config{MaxResidentDesigns: 1})
	d1, d2 := miniDesign(1, 2), miniDesign(2, 2)
	for _, d := range []Design{d1, d2} {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := reg.Session(d1.Digest, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Session(d2.Digest, 64); !errors.Is(err, transport.ErrOverCapacity) {
		t.Fatalf("design cap with no idle victim: want ErrOverCapacity, got %v", err)
	}
	s1.Close()
	s2, err := reg.Session(d2.Digest, 64)
	if err != nil {
		t.Fatalf("idle design should have been evicted to admit: %v", err)
	}
	s2.Close()
	m := reg.Metrics()
	if m.Tenants["design-1"].Resident {
		t.Error("design-1 should have been evicted once idle")
	}
}

// TestResidentByteBudget: the memory budget evicts idle designs to fit
// a new one and refuses a design that cannot fit even into an empty
// host.
func TestResidentByteBudget(t *testing.T) {
	small := miniDesign(1, 2)
	smallBytes := func() int64 { return miniNetwork(1, 2).ResidentEstimate() }()
	big := miniDesign(2, 10000)
	reg := NewRegistry(Config{MaxResidentBytes: smallBytes + 16})
	for _, d := range []Design{small, big} {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := reg.Session(small.Digest, 64)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := reg.Session(big.Digest, 64); !errors.Is(err, transport.ErrOverCapacity) {
		t.Fatalf("over-budget design: want ErrOverCapacity, got %v", err)
	}
	// The refusal did not corrupt the accounting: the small design still
	// serves.
	s, err = reg.Session(small.Digest, 64)
	if err != nil {
		t.Fatalf("small design refused after big one's rejection: %v", err)
	}
	s.Close()
	if m := reg.Metrics(); m.ResidentBytes != smallBytes {
		t.Errorf("residentBytes = %d, want %d", m.ResidentBytes, smallBytes)
	}
}

// TestStreamCaps: the open-transfer cap refuses a second concurrent
// stream with a typed error and releases the slot when the first ends,
// in frame order: a client that has aborted a stream or read its End
// reopens at once. In process and over TCP alike.
func TestStreamCaps(t *testing.T) {
	open := map[string]func(t *testing.T, r *Registry, digest []byte) transport.Session{
		"inproc": func(t *testing.T, r *Registry, digest []byte) transport.Session {
			s, err := r.Session(digest, 16)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"tcp": func(t *testing.T, r *Registry, digest []byte) transport.Session {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(r, ln, nil)
			t.Cleanup(func() { srv.Close() })
			c, err := transport.Dial(srv.Addr().String(), transport.Config{Digest: digest, Chunk: 16})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, dial := range open {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry(Config{MaxTenantStreams: 1})
			d := miniDesign(1, 300)
			if err := reg.Register(d); err != nil {
				t.Fatal(err)
			}
			s := dial(t, reg, d.Digest)
			defer s.Close()
			frag, err := s.Open(context.Background(), "f1")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open(context.Background(), "f1"); !errors.Is(err, transport.ErrOverCapacity) {
				t.Fatalf("second concurrent stream under cap 1: want ErrOverCapacity, got %v", err)
			}
			frag.Abort()
			frag2, err := s.Open(context.Background(), "f1")
			if err != nil {
				t.Fatalf("slot not released by abort: %v", err)
			}
			drain(t, frag2)
			frag3, err := s.Open(context.Background(), "f1")
			if err != nil {
				t.Fatalf("slot not released by EOF: %v", err)
			}
			frag3.Abort()
		})
	}
}

// TestMetricsMatchClientStats is the accounting acceptance check: after
// a fully valid distributed + centralized run over TCP, the tenant's
// counters equal the kernel peer's protocol-level Stats — messages,
// frames, and bytes.
func TestMetricsMatchClientStats(t *testing.T) {
	reg := NewRegistry(Config{})
	d := miniDesign(7, 50)
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, ln, httpLn)
	defer srv.Close()

	n := miniNetwork(7, 50)
	sess, err := n.DialTCP(map[string]string{"f7": srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	n.Transport = sess
	if v, err := n.ValidateDistributed(); err != nil || !v {
		t.Fatalf("distributed: v=%v err=%v", v, err)
	}
	if v, err := n.ValidateCentralized(); err != nil || !v {
		t.Fatalf("centralized: v=%v err=%v", v, err)
	}
	stats := n.Stats.Totals()

	// Metrics go through the HTTP endpoint, as an operator would see them.
	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	tm, ok := m.Tenants["design-7"]
	if !ok {
		t.Fatalf("tenant missing from metrics: %+v", m)
	}
	if int(tm.Counters.Messages) != stats.Messages ||
		int(tm.Counters.Frames) != stats.Frames ||
		int(tm.Counters.Bytes) != stats.Bytes {
		t.Errorf("tenant counters (msg=%d frames=%d bytes=%d) != client stats (msg=%d frames=%d bytes=%d)",
			tm.Counters.Messages, tm.Counters.Frames, tm.Counters.Bytes,
			stats.Messages, stats.Frames, stats.Bytes)
	}
	if tm.Counters.Verdicts != 1 || tm.Counters.Delivered != 1 {
		t.Errorf("verdicts=%d delivered=%d, want 1/1", tm.Counters.Verdicts, tm.Counters.Delivered)
	}

	// And the health endpoint answers.
	hr, err := http.Get("http://" + srv.HTTPAddr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Designs int    `json:"designs"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Designs != 1 {
		t.Errorf("healthz: %+v", h)
	}
}

// TestSharedMachineManySessions hammers one design with concurrent
// sessions: all of them share the tenant's compiled validator, which
// the race detector checks for unsynchronized state.
func TestSharedMachineManySessions(t *testing.T) {
	reg := NewRegistry(Config{})
	d := miniDesign(1, 40)
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := reg.Session(d.Digest, 16)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			v, err := s.Verdict(context.Background(), "f1")
			if err != nil || !v {
				errs <- fmt.Errorf("verdict v=%v err=%v", v, err)
				return
			}
			frag, err := s.Open(context.Background(), "f1")
			if err != nil {
				errs <- err
				return
			}
			var got []byte
			for {
				chunk, err := frag.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs <- err
					return
				}
				got = append(got, chunk...)
			}
			if !strings.Contains(string(got), "<a/>") {
				errs <- fmt.Errorf("fragment bytes wrong: %q", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := reg.Metrics()
	if m.Global.Sessions != workers || m.Global.Verdicts != workers || m.Global.Delivered != workers {
		t.Errorf("counters after %d workers: %+v", workers, m.Global)
	}
	if m.ActiveSessions != 0 || m.ActiveStreams != 0 {
		t.Errorf("slots leaked: sessions=%d streams=%d", m.ActiveSessions, m.ActiveStreams)
	}
}

// TestManyDesignsFanIn registers well over a hundred designs on one
// registry and runs concurrent sessions against every one of them.
func TestManyDesignsFanIn(t *testing.T) {
	const designs, perDesign = 120, 3
	reg := NewRegistry(Config{})
	specs := make([]Design, designs)
	for i := range specs {
		specs[i] = miniDesign(i, 5)
		if err := reg.Register(specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, designs*perDesign)
	for i, d := range specs {
		for k := 0; k < perDesign; k++ {
			wg.Add(1)
			go func(i int, d Design) {
				defer wg.Done()
				s, err := reg.Session(d.Digest, 32)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", d.Name, err)
					return
				}
				defer s.Close()
				if v, err := s.Verdict(context.Background(), fmt.Sprintf("f%d", i)); err != nil || !v {
					errs <- fmt.Errorf("%s: v=%v err=%v", d.Name, v, err)
				}
			}(i, d)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := reg.Metrics()
	if m.Designs != designs {
		t.Errorf("designs = %d, want %d", m.Designs, designs)
	}
	if m.Global.Sessions != designs*perDesign {
		t.Errorf("sessions = %d, want %d", m.Global.Sessions, designs*perDesign)
	}
	if m.Global.Rejections != 0 {
		t.Errorf("unexpected rejections: %d", m.Global.Rejections)
	}
}

// TestRegisterValidation: duplicate digests and names are refused at
// registration, not discovered at routing.
func TestRegisterValidation(t *testing.T) {
	reg := NewRegistry(Config{})
	d := miniDesign(1, 2)
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	dup := miniDesign(1, 2)
	if err := reg.Register(dup); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate digest: %v", err)
	}
	renamed := miniDesign(2, 2)
	renamed.Name = d.Name
	if err := reg.Register(renamed); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate name: %v", err)
	}
	if err := reg.Register(Design{Name: "x", Digest: []byte{1}}); err == nil {
		t.Error("builderless design accepted")
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d, want 1", reg.Len())
	}
}
