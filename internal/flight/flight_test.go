package flight

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dxml/internal/obs"
	"dxml/internal/transport"
	"dxml/internal/transport/chaos"
)

// wire fabricates a frame's wire bytes: a length prefix, a type byte,
// and a payload the recorder treats as opaque.
func wire(typ byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	n := uint32(1 + len(payload))
	b[0], b[1], b[2], b[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	b[4] = typ
	copy(b[5:], payload)
	return b
}

// tap records one frame through the recorder's observer seam.
func tap(r *Recorder, dir transport.Dir, sess uint64, head, tail []byte) {
	r.Observe(transport.Event{Dir: dir, Sess: sess, Head: head, Tail: tail})
}

// A session failure carries no frame: the recorder keeps nothing for it.
func TestRecorderSkipsFailures(t *testing.T) {
	r := NewRecorder(Options{})
	r.Observe(transport.Event{Kind: transport.Failed, Sess: 1, Err: errors.New("boom")})
	if r.Total() != 0 || len(r.Frames()) != 0 {
		t.Fatalf("recorded a failure as a frame: total %d", r.Total())
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	tap(r, transport.Out, 1, []byte{1, 2, 3}, nil) // must not panic
	if got := r.Frames(); got != nil {
		t.Fatalf("nil recorder frames = %v", got)
	}
	if r.Total() != 0 {
		t.Fatal("nil recorder total != 0")
	}
	if r.EncodeRing() != nil {
		t.Fatal("nil recorder encodes a ring")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(Options{RingFrames: 4})
	for i := 0; i < 10; i++ {
		tap(r, transport.Out, 7, wire(8, []byte{byte(i)}), nil)
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	frames := r.Frames()
	if len(frames) != 4 {
		t.Fatalf("ring kept %d frames, want 4", len(frames))
	}
	// Oldest first: frames 6..9 survive.
	for i, f := range frames {
		if want := byte(6 + i); f.Wire[5] != want {
			t.Fatalf("frame %d payload = %d, want %d", i, f.Wire[5], want)
		}
		if f.Dir != Out || f.Sess != 7 {
			t.Fatalf("frame %d = %+v", i, f)
		}
		if f.Orig != len(f.Wire) {
			t.Fatalf("frame %d Orig = %d, want %d", i, f.Orig, len(f.Wire))
		}
	}
}

func TestRingTruncatesLargeFrames(t *testing.T) {
	r := NewRecorder(Options{RingFrames: 2, FrameBytes: MinFrameBytes})
	big := wire(8, bytes.Repeat([]byte{0xaa}, 1000))
	tap(r, transport.In, 1, big[:9], big[9:]) // head/tail split like the reader
	frames := r.Frames()
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}
	f := frames[0]
	if len(f.Wire) != MinFrameBytes {
		t.Fatalf("kept %d bytes, want the %d cap", len(f.Wire), MinFrameBytes)
	}
	if f.Orig != len(big) {
		t.Fatalf("Orig = %d, want %d", f.Orig, len(big))
	}
	if !bytes.Equal(f.Wire, big[:MinFrameBytes]) {
		t.Fatal("truncated bytes are not the frame's prefix")
	}
}

func TestFramesCopiesOutOfRing(t *testing.T) {
	r := NewRecorder(Options{RingFrames: 2})
	tap(r, transport.Out, 1, wire(8, []byte("abc")), nil)
	frames := r.Frames()
	// Overwrite the slot; the returned copy must not change.
	tap(r, transport.Out, 1, wire(8, []byte("xyz")), nil)
	tap(r, transport.Out, 1, wire(8, []byte("pqr")), nil)
	if string(frames[0].Wire[5:]) != "abc" {
		t.Fatalf("Frames aliases the live ring: %q", frames[0].Wire[5:])
	}
}

func TestCaptureRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Options{RingFrames: 2, FrameBytes: MinFrameBytes})
	if err := r.CaptureTo(&buf); err != nil {
		t.Fatal(err)
	}
	big := wire(8, bytes.Repeat([]byte{0xbb}, 500))
	small := wire(9, []byte{0, 0, 0, 1})
	tap(r, transport.Out, 42, small, nil)
	tap(r, transport.In, 42, big[:9], big[9:])
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	// The capture file holds FULL frames even when the ring truncates.
	if !bytes.Equal(recs[1].Wire, big) {
		t.Fatalf("capture truncated the frame: %d bytes, want %d", len(recs[1].Wire), len(big))
	}
	if recs[0].Sess != 42 || recs[0].Dir != Out || recs[1].Dir != In {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].WallNs == 0 || recs[1].MonoNs < recs[0].MonoNs {
		t.Fatalf("timestamps not monotone: %+v", recs)
	}
}

func TestEncodeRingRoundTrip(t *testing.T) {
	r := NewRecorder(Options{RingFrames: 4, FrameBytes: MinFrameBytes})
	big := wire(8, bytes.Repeat([]byte{0xcc}, 300))
	tap(r, transport.Out, 5, big, nil)
	recs, err := ReadCapture(bytes.NewReader(r.EncodeRing()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	// The ring keeps a truncated prefix; Orig still names the full size.
	if len(recs[0].Wire) != MinFrameBytes || recs[0].Orig != len(big) {
		t.Fatalf("wire %d / orig %d, want %d / %d", len(recs[0].Wire), recs[0].Orig, MinFrameBytes, len(big))
	}
}

func TestCaptureReaderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE!\n"),
		"cut header":  []byte("DXF"),
		"cut record":  append([]byte(captureMagic), 0, 0, 0, 40, 1, 2),
		"tiny record": append([]byte(captureMagic), 0, 0, 0, 3, 1, 2, 3),
		"huge record": append([]byte(captureMagic), 0xff, 0xff, 0xff, 0xff),
	}
	for name, b := range cases {
		if _, err := ReadCapture(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: garbage decoded without error", name)
		}
	}
}

func TestConcurrentTaps(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Options{RingFrames: 8})
	if err := r.CaptureTo(&buf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tap(r, transport.Out, uint64(g), wire(8, []byte{byte(i)}), nil)
			}
		}(g)
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Total() != 800 {
		t.Fatalf("total = %d", r.Total())
	}
	recs, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("capture has %d records, want 800", len(recs))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "none"},
		{fmt.Errorf("wrapped: %w", chaos.ErrInjected), "injected"},
		{transport.ErrTimeout, "timeout"},
		{&transport.RefusedError{Code: transport.RefuseOverCapacity, Reason: "full"}, "refused"},
		{transport.ErrUnknownDesign, "refused"},
		{transport.ErrCodec, "codec"},
		{errors.New("anything else"), "error"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Fatalf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	c := obs.New()
	c.Add(obs.CFramesEncoded, 3)
	tl := obs.NewTraceLog(nil)
	c.SetTrace(tl)
	c.Span(obs.Span{Name: "hello", Trace: 9})

	r := NewRecorder(Options{RingFrames: 4})
	tap(r, transport.Out, 9, wire(8, []byte("hi")), nil)

	b := NewBundle(transport.ErrTimeout, r, c)
	if b.Kind != "timeout" || b.Frames != 1 {
		t.Fatalf("bundle = kind %q frames %d", b.Kind, b.Frames)
	}
	if len(b.Spans) != 1 || b.Spans[0].Name != "hello" {
		t.Fatalf("spans = %+v", b.Spans)
	}
	if b.Metrics == nil || b.Metrics.Counters["dxml_frames_encoded_total"] != 3 {
		t.Fatalf("metrics = %+v", b.Metrics)
	}

	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := got.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Wire[5:]) != "hi" {
		t.Fatalf("bundle records = %+v", recs)
	}
}

func TestDumperLimitAndNames(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(Options{RingFrames: 2})
	tap(r, transport.In, 1, wire(8, nil), nil)
	d := &Dumper{Dir: dir, Rec: r, Limit: 2}

	var nilDumper *Dumper
	if path, err := nilDumper.Dump(transport.ErrTimeout); err != nil || path != "" {
		t.Fatalf("nil dumper dumped: %q, %v", path, err)
	}

	p1, err := d.Dump(transport.ErrTimeout)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Dump(&transport.RefusedError{Code: transport.RefuseUnknownDesign})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := d.Dump(transport.ErrTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != "" {
		t.Fatalf("dump over the limit wrote %q", p3)
	}
	if !strings.Contains(filepath.Base(p1), "timeout") || !strings.Contains(filepath.Base(p2), "refused") {
		t.Fatalf("bundle names carry no kind: %q, %q", p1, p2)
	}
	for _, p := range []string{p1, p2} {
		if _, err := ReadBundle(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("dir has %d entries, want 2", len(ents))
	}
}

// TestCaptureFileOwnership pins the Close contract: CaptureTo adopts an
// io.Closer, so Close seals the file and later taps fail loudly into
// cwErr rather than silently vanishing.
func TestCaptureFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cap.dxfr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(Options{})
	if err := r.CaptureTo(f); err != nil {
		t.Fatal(err)
	}
	tap(r, transport.Out, 3, wire(8, []byte("x")), nil)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
}

// readCaptureAll is a tiny helper for the fuzzer: decode until error.
func readCaptureAll(b []byte) ([]Record, error) {
	cr, err := NewCaptureReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := cr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
