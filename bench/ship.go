package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"time"

	"dxml"
)

// ship-tcp and ship-inproc: the centralized protocol's bulk path. Each op
// is one ValidateCentralized round: every docking point's fragment is
// serialized, chunked, framed and shipped to the kernel peer, which
// tokenizes and validates it as it arrives. Two tenants share the design
// shape: tenant 0's federation is valid; tenant 1's has one invalid entry
// at a seeded mid-document position, so its rounds end in a mid-transfer
// rejection. Every tenth round goes to tenant 1. ship-tcp serves both
// tenants from one multi-tenant host on loopback TCP over sessions dialed
// once; ship-inproc runs the same rounds over the default in-process wire.

// shipEntries are the bureaus' entry counts (about 512, 256 and 200 KB);
// the averages fragment holds shipGoods goods (about 4 KB), for about
// 1 MB a round.
var shipEntries = []int{5000, 2500, 2000}

const (
	shipGoods = 34
	// shipBad is tenant 1's invalid fragment (the second bureau); the bad
	// entry sits at a seeded position between 40% and 60% of it.
	shipBad = 2
)

type shipInputs struct {
	tcp   bool
	frags [2][][]*dxml.Tree // tenant -> docking point -> fragment content
}

func prepareShip(tcp bool) func(params) (inputs, error) {
	return func(p params) (inputs, error) {
		r := rand.New(rand.NewSource(p.seed))
		in := &shipInputs{tcp: tcp}
		for t := range in.frags {
			fr := [][]*dxml.Tree{averages(scaled(shipGoods, p.scale))}
			for _, n := range shipEntries {
				fr = append(fr, entries(r, scaled(n, p.scale)))
			}
			in.frags[t] = fr
		}
		bad := in.frags[1][shipBad]
		bad[len(bad)*2/5+r.Intn(len(bad)/5+1)] = badEntry()
		return in, nil
	}
}

type shipSystem struct {
	in       *shipInputs
	global   *dxml.EDTD
	served   [2]*dxml.Network // the resource peers' side
	clients  [2]*dxml.Network // the kernel peer's side (the served network in process)
	expect   [2]bool
	srv      *dxml.HostServer
	sessions []dxml.TransportSession
	marked   [2]dxml.Totals
}

func (in *shipInputs) setup(tr *tracer) (system, error) {
	s := &shipSystem{in: in, expect: [2]bool{true, false}}
	var reg *dxml.HostRegistry
	if in.tcp {
		reg = dxml.NewHostRegistry(dxml.HostConfig{})
	}
	for t := range s.served {
		d, err := parseDesign(kernelSource(4*t, 4), true)
		if err != nil {
			return nil, err
		}
		served, err := d.network(in.frags[t])
		if err != nil {
			return nil, err
		}
		s.global, s.served[t] = d.global, served
		if !in.tcp {
			served.GlobalMachine()
			s.clients[t] = served
			continue
		}
		err = reg.Register(dxml.HostDesign{
			Name:   fmt.Sprintf("tenant-%d", t),
			Digest: served.Digest(),
			Build: tr.build(func() (map[string]dxml.TransportSource, int64, error) {
				return served.HostSources(), served.ResidentEstimate(), nil
			}),
		})
		if err != nil {
			return nil, err
		}
		s.clients[t] = dxml.NewNetwork(d.kernel, d.global)
	}
	if !in.tcp {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = dxml.NewHostServer(reg, ln, nil)
	for _, c := range s.clients {
		sess, err := c.DialTCP(addrsFor(c.Kernel, s.srv.Addr().String()))
		if err != nil {
			s.close()
			return nil, err
		}
		s.sessions = append(s.sessions, sess)
		c.Transport = tr.session(sess, tr.current)
		c.GlobalMachine()
	}
	return s, nil
}

// crossCheck validates each tenant's materialized extension with the
// tree validator.
func (s *shipSystem) crossCheck() error {
	for t, n := range s.served {
		ext, err := n.Materialize()
		if err != nil {
			return err
		}
		if valid := s.global.Validate(ext) == nil; valid != s.expect[t] {
			return fmt.Errorf("tenant %d: extension valid=%v, built to be %v", t, valid, s.expect[t])
		}
	}
	return nil
}

func (s *shipSystem) plant() { s.expect[0] = !s.expect[0] }

func tenantOf(i int) int {
	if i%10 == 9 {
		return 1
	}
	return 0
}

func (s *shipSystem) op(c *opCtx) error {
	t := tenantOf(c.i)
	ok, err := s.clients[t].ValidateCentralized()
	if err != nil {
		return err
	}
	if ok != s.expect[t] {
		return wrongf("tenant %d: centralized verdict %v, want %v", t, ok, s.expect[t])
	}
	return nil
}

func (s *shipSystem) mark() {
	for t, c := range s.clients {
		s.marked[t] = c.Stats.Totals()
	}
}

// since is the tenant's traffic since mark.
func (s *shipSystem) since(t int) dxml.Totals {
	a, b := s.clients[t].Stats.Totals(), s.marked[t]
	return dxml.Totals{Messages: a.Messages - b.Messages, Frames: a.Frames - b.Frames,
		Bytes: a.Bytes - b.Bytes, BytesSaved: a.BytesSaved - b.BytesSaved}
}

func (s *shipSystem) layers(r *report, ph *phase, tr *tracer) error {
	ops := float64(len(ph.lat))
	valid, invalid := s.since(0), s.since(1)
	delivered := float64(valid.Bytes + invalid.Bytes)
	r.set("p2p.round_ms", ph.meanLatencyMs())
	r.set("p2p.wire_bytes_per_op", delivered/ops)
	r.set("p2p.validated_mb_s", delivered/1e6/ph.elapsed.Seconds())
	r.set("p2p.frames_per_op", float64(valid.Frames+invalid.Frames)/ops)
	deliveredShare := 1.0
	if total := invalid.Bytes + invalid.BytesSaved; total > 0 {
		deliveredShare = float64(invalid.Bytes) / float64(total)
		r.set("p2p.saved_ratio", float64(invalid.BytesSaved)/float64(total))
	}
	if tr == nil {
		return nil
	}
	// Solo references, measured after the traced phase on the same bytes:
	// the sender's serialization alone, and the kernel peer's tokenize and
	// validate alone over the materialized extension in 4 KiB chunks.
	var solo [2]float64 // ns to serialize one full round of each tenant
	for t := range solo {
		solo[t] = soloSerialize(s.served[t])
	}
	roundBytes := float64(s.roundBytes(0))
	feedNs, feedBytes, err := s.soloFeed()
	if err != nil {
		return fmt.Errorf("solo feed of the valid extension: %w", err)
	}
	n1 := 0.0
	for i := range ph.lat {
		n1 += float64(tenantOf(i))
	}
	roundNs := ph.meanLatencyMs() * 1e6 * ops
	openNs, opens := tr.total("transport.open")
	waitNs, chunks := tr.total("transport.next_wait")
	serNs, _ := tr.total("host.serialize")
	if opens > 0 {
		r.set("transport.open_us", openNs/opens/1e3)
	}
	r.set("transport.next_wait_ms_per_op", waitNs/ops/1e6)
	r.set("transport.chunks_per_op", chunks/ops)
	if serNs > 0 {
		soloSend := (ops-n1)*solo[0] + n1*solo[1]*deliveredShare
		r.set("transport.send_ms_per_op", (serNs-soloSend)/ops/1e6)
	}
	r.set("xmltree.serialize_mb_s", roundBytes/solo[0]*1e3)
	r.set("stream.feed_ms_per_op", (roundNs-openNs-waitNs)/ops/1e6)
	feedRate := feedBytes / feedNs // bytes per ns
	r.set("stream.feed_mb_s", feedRate*1e3)
	r.set("trace.other_pct", 100*(roundNs-openNs-waitNs-delivered/feedRate)/roundNs)
	return nil
}

// roundBytes is one full round's fragment bytes for a tenant.
func (s *shipSystem) roundBytes(t int) int {
	n := 0
	for _, p := range s.served[t].Peers {
		n += p.Doc.XMLSize()
	}
	return n
}

// soloSerialize times serializing every fragment of a network into
// io.Discard, returning ns per round.
func soloSerialize(n *dxml.Network) float64 {
	return timePerRep(func() error {
		for _, p := range n.Peers {
			if err := p.Doc.ToXML(io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
}

// soloFeed times a Feeder over tenant 0's materialized extension in
// 4 KiB chunks, returning ns per pass and the bytes fed.
func (s *shipSystem) soloFeed() (ns, size float64, err error) {
	ext, err := s.served[0].Materialize()
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if err := ext.ToXML(&buf); err != nil {
		return 0, 0, err
	}
	doc := buf.Bytes()
	m := dxml.CompileStream(s.global)
	var ferr error
	ns = timePerRep(func() error {
		f := m.NewFeeder()
		for off := 0; off < len(doc); off += dxml.DefaultChunkSize {
			if err := f.Feed(doc[off:min(off+dxml.DefaultChunkSize, len(doc))]); err != nil {
				ferr = err
				return err
			}
		}
		ferr = f.Close()
		return ferr
	})
	return ns, float64(len(doc)), ferr
}

// timePerRep repeats f for at least 100 ms and three runs, returning the
// fastest run in ns: the least disturbed by other work on the machine.
func timePerRep(f func() error) float64 {
	start := time.Now()
	best := time.Duration(math.MaxInt64)
	for reps := 0; reps < 3 || time.Since(start) < 100*time.Millisecond; reps++ {
		t0 := time.Now()
		if f() != nil {
			break
		}
		best = min(best, time.Since(t0))
	}
	return float64(best)
}

func (s *shipSystem) check() error { return nil }

func (s *shipSystem) close() {
	for _, sess := range s.sessions {
		sess.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}
