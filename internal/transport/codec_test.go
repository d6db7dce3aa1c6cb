package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// sampleFrames covers every frame type with representative payloads.
func sampleFrames() []frame {
	return []frame{
		{typ: frameHello, flag: protocolVersion, id: 4096, win: 32, data: Digest("design")},
		{typ: frameHello, flag: protocolVersion, id: 4096, win: math.MaxUint32, data: Digest("design")},
		{typ: frameHello, flag: protocolVersion, id: 4096, win: 0, data: Digest("design")},
		{typ: frameWelcome, flag: protocolVersion, data: Digest("design")},
		{typ: frameError, str: "boom"},
		{typ: frameError},
		{typ: frameVerdictReq, id: 7, str: "f1"},
		{typ: frameVerdict, id: 7, flag: 1},
		{typ: frameVerdictCancel, id: 7},
		{typ: frameVerdict, id: 8, flag: 0},
		{typ: frameOpen, id: 9, str: "f2"},
		{typ: frameBegin, id: 9, size: 1 << 40, win: 8},
		{typ: frameChunk, id: 9, data: []byte("<a>\n  <b/>\n</a>\n")},
		{typ: frameChunk, id: 9, data: nil},
		{typ: frameAck, id: 9, ver: 3},
		{typ: frameAck, id: 9, ver: math.MaxUint64},
		{typ: frameAck, id: 9},
		{typ: frameEnd, id: 9},
		{typ: frameReject, id: 9, str: "rejected by receiver"},
		{typ: frameStreamErr, id: 9, str: "no such docking point"},
		{typ: frameStreamErr, id: 9, flag: uint8(RefuseOverCapacity), str: "tenant open-transfer cap reached"},
		{typ: frameSubscribe, id: 11, str: "f1"},
		{typ: frameSubscribed, id: 11, ver: 42, size: 1 << 20, win: 1},
		{typ: frameEdit, id: 11, ver: 43, flag: 1, addr: []uint64{1 << 32, 3 << 31}, data: []byte("<p/>\n")},
		{typ: frameEdit, id: 11, ver: 44, flag: 3},
		{typ: frameEditAck, id: 11, ver: 43},
		{typ: frameVerdictUpdate, id: 11, ver: 43, flag: 1},
		{typ: framePing, id: 77},
		{typ: framePong, id: 77},
		{typ: frameResume, id: 12, ver: 40, str: "f1"},
		{typ: frameSubscribed, id: 12, ver: 42, flag: 1, win: 4096},
		{typ: frameRefuse, flag: uint8(RefuseOverCapacity), str: "session cap reached"},
		{typ: frameRefuse, flag: uint8(RefuseUnknownDesign)},
	}
}

func frameEqual(a, b frame) bool {
	if len(a.addr) != len(b.addr) {
		return false
	}
	for i := range a.addr {
		if a.addr[i] != b.addr[i] {
			return false
		}
	}
	return a.typ == b.typ && a.id == b.id && a.size == b.size && a.ver == b.ver &&
		a.flag == b.flag && a.win == b.win && a.str == b.str && bytes.Equal(a.data, b.data)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	frames := sampleFrames()
	for _, f := range frames {
		if err := fw.write(f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	fr := newFrameReader(&buf)
	for i, want := range frames {
		got, err := fr.read()
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		// The reader reuses its buffer, so compare before the next read.
		if !frameEqual(got, want) {
			t.Fatalf("frame %d round trip: got %+v want %+v", i, got, want)
		}
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("clean end of stream should be io.EOF, got %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	for _, f := range sampleFrames() {
		if err := fw.write(f); err != nil {
			t.Fatal(err)
		}
	}
	wire := buf.Bytes()
	// Every proper prefix must decode to clean frames followed by either
	// io.EOF (prefix ends on a frame boundary) or a truncation error —
	// never a panic, never a spurious success.
	for cut := 0; cut < len(wire); cut++ {
		fr := newFrameReader(bytes.NewReader(wire[:cut]))
		for {
			_, err := fr.read()
			if err == nil {
				continue
			}
			if err != io.EOF && !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
			break
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":  binary.BigEndian.AppendUint32(nil, 0),
		"unknown type": append(binary.BigEndian.AppendUint32(nil, 1), 0xEE),
		"zero type":    append(binary.BigEndian.AppendUint32(nil, 1), 0x00),
		"short begin":  append(binary.BigEndian.AppendUint32(nil, 3), byte(frameBegin), 1, 2),
		// A v3-shaped begin (id+size, no window echo) is short on the v4 wire.
		"v3 begin": append(binary.BigEndian.AppendUint32(nil, 13), byte(frameBegin), 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1),
		// A v3-shaped ack (bare id, no cumulative count) is short on the v4 wire.
		"v3 ack":   append(binary.BigEndian.AppendUint32(nil, 5), byte(frameAck), 0, 0, 0, 9),
		"ack tail": append(binary.BigEndian.AppendUint32(nil, 7), byte(frameAck), 0, 0, 0, 1, 'x', 'y'),
		// A v3-shaped hello (version+chunk, no window grant) is short on the v4 wire.
		"v3 hello":     append(binary.BigEndian.AppendUint32(nil, 6), byte(frameHello), protocolVersion, 0, 0, 16, 0),
		"oversized":    binary.BigEndian.AppendUint32(nil, math.MaxUint32),
		"short ping":   append(binary.BigEndian.AppendUint32(nil, 3), byte(framePing), 0, 1),
		"ping tail":    append(binary.BigEndian.AppendUint32(nil, 6), byte(framePing), 0, 0, 0, 1, 'x'),
		"pong tail":    append(binary.BigEndian.AppendUint32(nil, 6), byte(framePong), 0, 0, 0, 2, 'x'),
		"short resume": append(binary.BigEndian.AppendUint32(nil, 8), byte(frameResume), 0, 0, 0, 1, 0, 0, 0),
		"empty refuse": append(binary.BigEndian.AppendUint32(nil, 1), byte(frameRefuse)),
	}
	for name, wire := range cases {
		fr := newFrameReader(bytes.NewReader(wire))
		if _, err := fr.read(); err == nil || err == io.EOF {
			t.Errorf("%s: expected a decode error, got %v", name, err)
		}
	}
}

// TestFrameReaderBoundsAllocation: a hostile length prefix must error
// before allocating, not after reserving gigabytes.
func TestFrameReaderBoundsAllocation(t *testing.T) {
	wire := binary.BigEndian.AppendUint32(nil, 1<<31)
	allocs := testing.AllocsPerRun(5, func() {
		fr := newFrameReader(bytes.NewReader(wire))
		if _, err := fr.read(); err == nil {
			t.Fatal("oversized frame accepted")
		}
	})
	// A reader struct, a bufio buffer and an error — nothing proportional
	// to the claimed length.
	if allocs > 10 {
		t.Errorf("oversized frame cost %v allocations", allocs)
	}
}

// repeatReader yields the same wire bytes over and over.
type repeatReader struct {
	wire []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.wire[r.off:])
	r.off = (r.off + n) % len(r.wire)
	return n, nil
}

// TestFrameDecodeChunkAllocFree: decoding a chunk frame with no tap
// attached allocates nothing — every TCP and Pipe chunk goes through it.
func TestFrameDecodeChunkAllocFree(t *testing.T) {
	var wire bytes.Buffer
	fw := frameWriter{w: &wire}
	if err := fw.write(frame{typ: frameChunk, id: 9, data: blob(4096)}); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(&repeatReader{wire: wire.Bytes()})
	allocs := testing.AllocsPerRun(100, func() {
		if f, err := fr.read(); err != nil || f.typ != frameChunk || len(f.data) != 4096 {
			t.Fatalf("decoded %v, %v", f.typ, err)
		}
	})
	if allocs != 0 {
		t.Errorf("chunk frame decode cost %v allocations, want 0", allocs)
	}
}

// TestLivenessFramesHostile: the liveness and resume frames are the
// newest attack surface — hostile, truncated, or trailing-garbage ping,
// pong, and resume frames must yield a decode error with nothing
// allocated proportional to the claimed length (a reader, a bufio
// buffer and the error itself are the whole budget).
func TestLivenessFramesHostile(t *testing.T) {
	cases := map[string][]byte{
		"ping huge length":   append(binary.BigEndian.AppendUint32(nil, 1<<30), byte(framePing)),
		"pong huge length":   append(binary.BigEndian.AppendUint32(nil, 1<<30), byte(framePong)),
		"resume huge length": append(binary.BigEndian.AppendUint32(nil, 1<<30), byte(frameResume)),
		"ping truncated":     append(binary.BigEndian.AppendUint32(nil, 5), byte(framePing), 0, 0),
		"pong truncated":     append(binary.BigEndian.AppendUint32(nil, 5), byte(framePong), 0),
		"resume truncated":   append(binary.BigEndian.AppendUint32(nil, 13), byte(frameResume), 0, 0, 0, 1),
		"ping trailing":      append(binary.BigEndian.AppendUint32(nil, 7), byte(framePing), 0, 0, 0, 1, 'x', 'y'),
		"pong trailing":      append(binary.BigEndian.AppendUint32(nil, 7), byte(framePong), 0, 0, 0, 1, 'x', 'y'),
		"resume short fixed": append(binary.BigEndian.AppendUint32(nil, 9), byte(frameResume), 0, 0, 0, 1, 0, 0, 0, 1),
	}
	for name, wire := range cases {
		allocs := testing.AllocsPerRun(5, func() {
			fr := newFrameReader(bytes.NewReader(wire))
			if _, err := fr.read(); err == nil {
				t.Fatalf("%s: hostile frame accepted", name)
			}
		})
		if allocs > 10 {
			t.Errorf("%s: hostile frame cost %v allocations", name, allocs)
		}
	}
}

func TestFrameWriterRefusesOversize(t *testing.T) {
	fw := frameWriter{w: io.Discard}
	if err := fw.write(frame{typ: frameChunk, id: 1, data: make([]byte, maxFramePayload+1)}); err == nil {
		t.Error("oversized chunk frame accepted")
	}
}

// TestClampWindow pins the credit-window clamp: hostile or nonsensical
// grants (zero, negative after int conversion, absurdly large) always
// resolve to a usable window in [1, maxWindow] — a sender can neither
// be deadlocked by a zero grant nor buffer unboundedly from a huge one.
func TestClampWindow(t *testing.T) {
	cases := []struct{ req, cap, want int }{
		{0, 0, 1},
		{-5, 0, 1},
		{1, 0, 1},
		{32, 0, 32},
		{maxWindow, 0, maxWindow},
		{maxWindow + 1, 0, maxWindow},
		{1 << 31, 0, maxWindow},
		{64, 8, 8}, // host cap lowers the grant
		{4, 8, 4},  // cap never raises it
		{0, 8, 1},  // zero grant still yields a working window
		{-1, 8, 1}, // overflowed uint32→int grants clamp up, not down
		{1 << 31, 8, 8},
	}
	for _, c := range cases {
		if got := clampWindow(c.req, c.cap); got != c.want {
			t.Errorf("clampWindow(%d, %d) = %d, want %d", c.req, c.cap, got, c.want)
		}
	}
}

func TestWireChunkRoundTrip(t *testing.T) {
	for _, budget := range []int{1, 16, 4096, 1 << 20} {
		if got := budgetFromWire(wireChunk(budget)); got != budget {
			t.Errorf("budget %d round-tripped to %d", budget, got)
		}
	}
	if got := budgetFromWire(wireChunk(math.MaxInt)); got != math.MaxInt {
		t.Errorf("unchunked sentinel round-tripped to %d", got)
	}
	if got := budgetFromWire(wireChunk(0)); got != math.MaxInt {
		t.Errorf("zero budget should decode as unchunked, got %d", got)
	}
}
