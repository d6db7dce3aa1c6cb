// Package flight is the federation's black box: a bounded ring of the
// most recent wire frames, fed as a transport.Observer, plus an
// optional full binary capture file and a postmortem bundle writer.
//
// The recorder follows the obs package's nil discipline — a nil
// *Recorder is the no-op sink, every method is safe on nil — so the
// transport's hot paths pay one nil check when flight recording is
// off. When it is on, the steady-state cost is bounded: the ring's
// slots reuse their backing arrays, so recording allocates only until
// every slot has grown to the per-frame cap.
//
// On a typed transport failure (timeout, refusal, injected fault,
// codec error) the hosting process dumps a postmortem Bundle: the
// frame ring, the obs trace-span ring, and a metrics snapshot, as one
// self-contained JSON artifact whose binary half `dxml inspect`
// decodes and `dxml replay` re-validates offline.
package flight

import (
	"bufio"
	"io"
	"sync"
	"time"

	"dxml/internal/transport"
)

// Dir is a recorded frame's direction relative to the recording
// process: Out frames left it, In frames arrived.
type Dir = transport.Dir

const (
	Out = transport.Out
	In  = transport.In
)

// monoEpoch anchors the recorder's monotonic timestamps: MonoNs values
// order frames reliably within one process even when the wall clock
// steps.
var monoEpoch = time.Now()

// Frame is one recorded wire frame. Wire holds the frame's leading
// bytes up to the recorder's per-frame cap; Orig is the frame's full
// on-wire length, so Orig > len(Wire) marks a payload the ring
// truncated (the capture file, when enabled, keeps frames whole).
type Frame struct {
	Dir    Dir
	Sess   uint64 // session trace ID (0 before the hello established one)
	WallNs int64  // wall-clock Unix nanoseconds at capture
	MonoNs int64  // monotonic nanoseconds at capture (process-local order)
	Wire   []byte
	Orig   int
}

// Defaults and floors for the recorder's bounds. The per-frame floor
// covers the frame header plus every fixed field any frame type
// carries, so even a maximally-truncating ring preserves each frame's
// type, stream id, and protocol fields — only variable tails (chunk
// payloads, digests, reasons) are cut.
const (
	DefaultRingFrames = 1024
	DefaultFrameBytes = 512
	MinFrameBytes     = 64
)

// Options bounds a recorder.
type Options struct {
	// RingFrames is the ring capacity in frames (0: DefaultRingFrames).
	RingFrames int
	// FrameBytes caps the bytes retained per ring frame (0:
	// DefaultFrameBytes; floored at MinFrameBytes).
	FrameBytes int
}

// slot is one ring entry; buf is the reused backing array for f.Wire.
type slot struct {
	used bool
	f    Frame
	buf  []byte
}

// Recorder is a bounded flight recorder: a ring of recent frames plus
// an optional full capture sink. It implements transport.Observer. A nil
// *Recorder is the no-op sink. One recorder may be shared by many
// sessions (a host's); frames carry their session's trace ID.
type Recorder struct {
	mu    sync.Mutex
	ring  []slot
	next  int
	total uint64
	cap   int

	cw     *bufio.Writer // capture sink (nil: ring only)
	closer io.Closer
	cwErr  error // first capture-write failure; capture stops there
}

// NewRecorder returns a recorder bounded by opts.
func NewRecorder(opts Options) *Recorder {
	n := opts.RingFrames
	if n <= 0 {
		n = DefaultRingFrames
	}
	c := opts.FrameBytes
	if c <= 0 {
		c = DefaultFrameBytes
	}
	if c < MinFrameBytes {
		c = MinFrameBytes
	}
	return &Recorder{ring: make([]slot, n), cap: c}
}

// CaptureTo attaches a full binary capture sink: every subsequent
// frame is appended whole (no per-frame cap) as one length-prefixed
// record after the capture header. The recorder owns w if it is an
// io.Closer and closes it on Close. No-op on a nil recorder.
func (r *Recorder) CaptureTo(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	if err := writeCaptureHeader(bw); err != nil {
		return err
	}
	r.cw = bw
	if c, ok := w.(io.Closer); ok {
		r.closer = c
	}
	return nil
}

// Observe records one event's frame; it implements transport.Observer
// and ignores Failed events, which carry no frame. The event's Head and
// Tail are the codec's two-part view of the wire bytes and are copied
// before returning, as the Observer contract requires.
func (r *Recorder) Observe(ev transport.Event) {
	if r == nil || ev.Kind == transport.Failed {
		return
	}
	d, sess, head, tail := ev.Dir, ev.Sess, ev.Head, ev.Tail
	orig := len(head) + len(tail)
	wall := time.Now().UnixNano()
	mono := int64(time.Since(monoEpoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cw != nil && r.cwErr == nil {
		r.cwErr = writeRecordParts(r.cw, Frame{Dir: d, Sess: sess, WallNs: wall, MonoNs: mono, Orig: orig}, head, tail)
	}
	s := &r.ring[r.next]
	keep := orig
	if keep > r.cap {
		keep = r.cap
	}
	b := s.buf[:0]
	if cap(b) < keep {
		b = make([]byte, 0, r.cap)
	}
	if len(head) >= keep {
		b = append(b, head[:keep]...)
	} else {
		b = append(b, head...)
		b = append(b, tail[:keep-len(head)]...)
	}
	s.buf = b
	s.used = true
	s.f = Frame{Dir: d, Sess: sess, WallNs: wall, MonoNs: mono, Wire: b, Orig: orig}
	r.next = (r.next + 1) % len(r.ring)
	r.total++
}

// Frames returns a copy of the retained frames, oldest first. Nil
// recorder: nil.
func (r *Recorder) Frames() []Frame {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Frame, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		s := &r.ring[(r.next+i)%len(r.ring)]
		if !s.used {
			continue
		}
		f := s.f
		f.Wire = append([]byte(nil), s.f.Wire...)
		out = append(out, f)
	}
	return out
}

// Total returns how many frames were recorded over the recorder's
// lifetime, including any that have rotated out of the ring.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// EncodeRing serializes the retained ring as a capture byte stream
// (header + one record per frame, ring-truncated payloads marked by
// their Orig length) — the binary half of a postmortem bundle.
func (r *Recorder) EncodeRing() []byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf writerBuf
	writeCaptureHeader(&buf)
	for i := 0; i < len(r.ring); i++ {
		s := &r.ring[(r.next+i)%len(r.ring)]
		if !s.used {
			continue
		}
		writeRecordParts(&buf, s.f, s.f.Wire, nil)
	}
	return buf.b
}

// Flush drains the capture sink's buffer; it reports the first capture
// write error, if any. No-op on a nil recorder or without a sink.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cwErr != nil {
		return r.cwErr
	}
	if r.cw == nil {
		return nil
	}
	return r.cw.Flush()
}

// Close flushes and closes an owned capture sink.
func (r *Recorder) Close() error {
	err := r.Flush()
	if r == nil {
		return err
	}
	r.mu.Lock()
	closer := r.closer
	r.closer, r.cw = nil, nil
	r.mu.Unlock()
	if closer != nil {
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writerBuf is a minimal in-memory io.Writer (bytes.Buffer without the
// interface indirection growing the capture encoder's surface).
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
