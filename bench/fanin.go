package main

import (
	"fmt"
	"math/rand"
	"net"

	"dxml"
)

// host-fanin: many small federations behind one multi-tenant host. Each
// op dials one of faninTenants designs, runs a distributed validation
// round (verdicts only, four small fragments validated where they live),
// and closes the session. Tenants are picked Zipf(1.1) by popularity
// rank, and the host keeps only faninResident designs materialized, so
// the working set exceeds residency and cold designs are rebuilt from
// their specs. Per-session costs dominate: hello, admission, residency,
// verdict round trips, small-document validation.

const (
	faninTenants  = 32
	faninResident = 8
	faninEntries  = 8 // entries per bureau fragment
	faninGoods    = 2
	// faninPicks bounds the tenant sequence and so the connections a run
	// opens: ops past it reuse the sequence from the start.
	faninPicks = 20000
	// faninRate is the open-loop arrival rate: a quarter of the
	// closed-loop capacity with two workers on the 2-core machine the
	// bounds were set on, so a spell at half speed of that shared machine
	// still leaves headroom (bench/README.md).
	faninRate = 500
)

// faninInvalid are the popularity ranks of the tenants whose federation
// holds one invalid fragment.
var faninInvalid = []int{2, 5, 11, 23}

type faninInputs struct {
	frags [][][]*dxml.Tree // tenant -> docking point -> fragment content
	valid []bool           // the verdict each tenant's rounds must return
	picks []int            // tenant of each op
}

func prepareFanin(p params) (inputs, error) {
	r := rand.New(rand.NewSource(p.seed))
	in := &faninInputs{valid: make([]bool, faninTenants)}
	for k := 0; k < faninTenants; k++ {
		fr := [][]*dxml.Tree{averages(faninGoods)}
		for b := 0; b < 3; b++ {
			fr = append(fr, entries(r, faninEntries))
		}
		in.frags = append(in.frags, fr)
		in.valid[k] = true
	}
	for _, k := range faninInvalid {
		fr := in.frags[k][1+r.Intn(3)]
		fr[r.Intn(len(fr))] = badEntry()
		in.valid[k] = false
	}
	z := rand.NewZipf(r, 1.1, 1, faninTenants-1)
	in.picks = make([]int, scaled(faninPicks, p.scale))
	for i := range in.picks {
		in.picks[i] = int(z.Uint64())
	}
	return in, nil
}

type faninSystem struct {
	in      *faninInputs
	tr      *tracer
	valid   []bool
	reg     *dxml.HostRegistry
	srv     *dxml.HostServer
	clients [2][]*dxml.Network // worker -> tenant -> kernel peer
	addrs   []map[string]string
	marked  dxml.Totals
	host    dxml.HostCounters
}

func (in *faninInputs) setup(tr *tracer) (system, error) {
	s := &faninSystem{in: in, tr: tr, valid: append([]bool(nil), in.valid...)}
	s.reg = dxml.NewHostRegistry(dxml.HostConfig{MaxResidentDesigns: faninResident})
	for k := 0; k < faninTenants; k++ {
		src := kernelSource(4*k, 4)
		d, err := parseDesign(src, true)
		if err != nil {
			return nil, err
		}
		for w := range s.clients {
			s.clients[w] = append(s.clients[w], dxml.NewNetwork(d.kernel, d.global))
		}
		// The host rebuilds an evicted design from its spec, as a host
		// serving design files does: parse, then attach the documents.
		build := func() (map[string]dxml.TransportSource, int64, error) {
			d, err := parseDesign(src, true)
			if err != nil {
				return nil, 0, err
			}
			n, err := d.network(in.frags[k])
			if err != nil {
				return nil, 0, err
			}
			return n.HostSources(), n.ResidentEstimate(), nil
		}
		err = s.reg.Register(dxml.HostDesign{Name: fmt.Sprintf("tenant-%d", k), Digest: s.clients[0][k].Digest(), Build: tr.build(build)})
		if err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = dxml.NewHostServer(s.reg, ln, nil)
	for _, c := range s.clients[0] {
		s.addrs = append(s.addrs, addrsFor(c.Kernel, s.srv.Addr().String()))
	}
	return s, nil
}

// crossCheck validates every tenant's materialized extension with the
// tree validator.
func (s *faninSystem) crossCheck() error {
	for k, fr := range s.in.frags {
		d, err := parseDesign(kernelSource(4*k, 4), true)
		if err != nil {
			return err
		}
		n, err := d.network(fr)
		if err != nil {
			return err
		}
		ext, err := n.Materialize()
		if err != nil {
			return err
		}
		if valid := d.global.Validate(ext) == nil; valid != s.valid[k] {
			return fmt.Errorf("tenant %d: extension valid=%v, built to be %v", k, valid, s.valid[k])
		}
	}
	return nil
}

func (s *faninSystem) plant() { k := s.in.picks[0]; s.valid[k] = !s.valid[k] }

func (s *faninSystem) op(c *opCtx) error {
	k := s.in.picks[c.i%len(s.in.picks)]
	n := s.clients[c.worker][k]
	start := s.tr.now()
	sess, err := n.DialTCP(s.addrs[k])
	s.tr.dial(c, start)
	if err != nil {
		return err
	}
	defer sess.Close()
	n.Transport = s.tr.session(sess, c.ref)
	defer func() { n.Transport = nil }()
	ok, err := n.ValidateDistributed()
	if err != nil {
		return err
	}
	if ok != s.valid[k] {
		return wrongf("tenant %d: distributed verdict %v, want %v", k, ok, s.valid[k])
	}
	return nil
}

func (s *faninSystem) totals() dxml.Totals {
	var t dxml.Totals
	for _, cs := range s.clients {
		for _, c := range cs {
			x := c.Stats.Totals()
			t.Frames += x.Frames
			t.Bytes += x.Bytes
		}
	}
	return t
}

func (s *faninSystem) mark() {
	s.marked, s.host = s.totals(), s.reg.Metrics().Global
}

func (s *faninSystem) layers(r *report, ph *phase, tr *tracer) error {
	ops := float64(len(ph.lat))
	t, h := s.totals(), s.reg.Metrics().Global
	r.set("p2p.wire_bytes_per_op", float64(t.Bytes-s.marked.Bytes)/ops)
	r.set("p2p.frames_per_op", float64(t.Frames-s.marked.Frames)/ops)
	r.set("host.rejections", float64(h.Rejections-s.host.Rejections))
	// In steady state every rebuild evicts one design, so evictions
	// count the residency misses.
	r.set("host.builds_per_op", float64(h.Evictions-s.host.Evictions)/ops)
	if tr == nil {
		r.set("p2p.round_ms", ph.meanLatencyMs())
		return nil
	}
	r.set("p2p.round_ms", tr.mean("op")/1e6)
	r.set("transport.dial_ms_p50", tr.dialQuantile(0.50))
	r.set("transport.dial_ms_p99", tr.dialQuantile(0.99))
	r.set("transport.verdict_rtt_us", tr.mean("transport.verdict")/1e3)
	r.set("stream.local_verdict_us", tr.mean("host.verdict")/1e3)
	r.set("host.build_ms", tr.mean("host.build")/1e6)
	return nil
}

func (s *faninSystem) check() error { return nil }

func (s *faninSystem) close() { s.srv.Close() }
