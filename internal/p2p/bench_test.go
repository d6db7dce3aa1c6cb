package p2p

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dxml/internal/xmltree"
)

// BenchmarkCentralizedChunkSweep runs centralized validation of a
// ~120k-node federation across frame budgets: the verdict and the bytes
// moved are identical at every size, so the sweep isolates pure framing
// overhead — the memory/throughput trade-off of the chunk knob.
func BenchmarkCentralizedChunkSweep(b *testing.B) {
	for _, chunk := range []int{16, 256, 4096, 65536, Unchunked} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			n, typing := eurostatSetup(b)
			n.ChunkSize = chunk
			attachValidDocs(b, n, typing, []int{5000, 5000, 5000})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := n.ValidateCentralized()
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			b.StopTimer()
			t := n.Stats.Totals()
			b.ReportMetric(float64(t.Bytes)/float64(b.N), "wire-bytes/op")
			b.ReportMetric(float64(t.Frames)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkTCPCentralizedChunkSweep is the chunk sweep over real
// loopback sockets: the same federation, verdicts and wire bytes as the
// in-process sweep, plus the cost of the frame codec and the
// stop-and-wait ack round-trips — the throughput price of synchronous
// backpressure at each budget.
func BenchmarkTCPCentralizedChunkSweep(b *testing.B) {
	for _, chunk := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			served, typing := eurostatSetup(b)
			served.ChunkSize = chunk
			attachValidDocs(b, served, typing, []int{5000, 5000, 5000})
			remote, shutdown := serveFederation(b, served)
			defer shutdown()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := remote.ValidateCentralized()
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			b.StopTimer()
			t := remote.Stats.Totals()
			b.ReportMetric(float64(t.Bytes)/float64(b.N), "wire-bytes/op")
			b.ReportMetric(float64(t.Frames)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkTCPDistributed measures a verdict-only round over loopback:
// the latency floor of the distributed protocol on a real wire.
func BenchmarkTCPDistributed(b *testing.B) {
	served, typing := eurostatSetup(b)
	attachValidDocs(b, served, typing, []int{200, 200, 200})
	remote, shutdown := serveFederation(b, served)
	defer shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := remote.ValidateDistributed()
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkTCPThroughput streams one fat fragment over loopback at the
// default budget and reports end-to-end MB/s — the headline number for
// the wire transport.
func BenchmarkTCPThroughput(b *testing.B) {
	served, typing := eurostatSetup(b)
	attachValidDocs(b, served, typing, []int{1, 1, 20000})
	size := 0
	for _, p := range served.Peers {
		size += p.Doc.XMLSize()
	}
	remote, shutdown := serveFederation(b, served)
	defer shutdown()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := remote.ValidateCentralized()
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkTCPWindowSweep is BenchmarkTCPThroughput across credit
// windows: the same fat fragment, the same chunk budget, windows from 1
// (the old stop-and-wait wire — one chunk per loopback round trip) to
// 64. Verdicts and wire bytes are pinned identical at every width by
// the differential tests; what the sweep isolates is pure pipelining —
// how much of the per-chunk round trip the credit window buys back.
// window=1 is the regression baseline the CI wire-bench job gates on.
func BenchmarkTCPWindowSweep(b *testing.B) {
	for _, window := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			served, typing := eurostatSetup(b)
			served.Window = window
			attachValidDocs(b, served, typing, []int{1, 1, 20000})
			size := 0
			for _, p := range served.Peers {
				size += p.Doc.XMLSize()
			}
			remote, shutdown := serveFederation(b, served)
			defer shutdown()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := remote.ValidateCentralized()
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// latencyListener wraps accepted connections so every write is
// delivered a fixed one-way delay later — without blocking the writer,
// which is what distinguishes latency from bandwidth. It is the bench's
// stand-in for a real link: on bare loopback the round trip is a few
// microseconds and validation dominates, so the credit window's effect
// only shows once the wire has latency worth hiding.
type latencyListener struct {
	net.Listener
	delay time.Duration
}

func (l *latencyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	lc := &latencyConn{Conn: c, delay: l.delay, ch: make(chan timedBuf, 4096)}
	go lc.pump()
	return lc, nil
}

type timedBuf struct {
	at time.Time
	b  []byte
}

type latencyConn struct {
	net.Conn
	delay time.Duration
	ch    chan timedBuf

	mu     sync.Mutex
	closed bool
}

func (c *latencyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.ch <- timedBuf{at: time.Now().Add(c.delay), b: append([]byte(nil), p...)}
	c.mu.Unlock()
	return len(p), nil
}

func (c *latencyConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// pump delivers queued writes at their due time, preserving order.
func (c *latencyConn) pump() {
	for tb := range c.ch {
		if d := time.Until(tb.at); d > 0 {
			time.Sleep(d)
		}
		if _, err := c.Conn.Write(tb.b); err != nil {
			for range c.ch { // drain until Close
			}
			return
		}
	}
}

// BenchmarkTCPWindowSweepRTT is the window sweep over a wire with 500µs
// of one-way delivery latency on the host's writes — a LAN-scale round
// trip instead of loopback's microseconds. This is where the credit
// window earns its keep: at window 1 every chunk pays the full delay
// before the next may ship (stop-and-wait caps throughput at
// chunk/RTT), while wider windows keep up to N chunks in flight and
// hide the latency entirely. The ≥3× acceptance target of the credit
// wire is measured here, where round trips — not the validator — are
// the bottleneck.
func BenchmarkTCPWindowSweepRTT(b *testing.B) {
	for _, window := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			served, typing := eurostatSetup(b)
			served.Window = window
			attachValidDocs(b, served, typing, []int{1, 1, 20000})
			size := 0
			for _, p := range served.Peers {
				size += p.Doc.XMLSize()
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			host := served.ServeTCP(&latencyListener{Listener: ln, delay: 500 * time.Microsecond})
			defer host.Close()
			joined := NewNetwork(served.Kernel, served.GlobalType)
			joined.Window = window
			addrs := map[string]string{}
			for _, fn := range served.Kernel.Funcs() {
				addrs[fn] = host.Addr().String()
			}
			sess, err := joined.DialTCP(addrs)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			joined.Transport = sess
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := joined.ValidateCentralized()
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkCentralizedRejection measures the other side of the trade:
// an invalid first fragment with a fat healthy one behind it. Small
// chunks stop the transfer almost immediately — BytesSaved per op is the
// communication win of mid-transfer rejection.
func BenchmarkCentralizedRejection(b *testing.B) {
	for _, chunk := range []int{256, 4096, Unchunked} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			n, typing := eurostatSetup(b)
			n.ChunkSize = chunk
			attachValidDocs(b, n, typing, []int{1, 1, 20000})
			n.Peers["f0"].Doc.Children = nil // averages missing: fails instantly
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := n.ValidateCentralized()
				if err != nil || ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
			b.StopTimer()
			t := n.Stats.Totals()
			b.ReportMetric(float64(t.Bytes)/float64(b.N), "wire-bytes/op")
			b.ReportMetric(float64(t.BytesSaved)/float64(b.N), "saved-bytes/op")
		})
	}
}

// BenchmarkCentralizedFreshDocs is the centralized round when every
// document changes between rounds: each round assigns every peer the
// other of two pre-built clones of its document, so no transfer finds
// its version's bytes already serialized and each pays the full build.
// It is the workload the peers' serialization cache cannot help.
func BenchmarkCentralizedFreshDocs(b *testing.B) {
	n, typing := eurostatSetup(b)
	attachValidDocs(b, n, typing, []int{5000, 5000, 5000})
	funcs := n.Kernel.Funcs()
	clones := make([][2]*xmltree.Tree, len(funcs))
	for i, fn := range funcs {
		doc := n.Peers[fn].Doc
		clones[i] = [2]*xmltree.Tree{doc.Clone(), doc.Clone()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, fn := range funcs {
			n.Peers[fn].Doc = clones[k][i%2]
		}
		ok, err := n.ValidateCentralized()
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}
