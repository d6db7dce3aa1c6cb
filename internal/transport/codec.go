package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"

	"dxml/internal/obs"
)

// The TCP wire speaks length-prefixed binary frames:
//
//	uint32 big-endian payload length | uint8 frame type | payload
//
// The payload length covers the type byte, so an empty frame is length
// 1. Frames larger than maxFramePayload are a protocol error — the
// reader refuses them before allocating, so a hostile or corrupt length
// prefix cannot balloon memory.
const (
	// protocolVersion is bumped on any incompatible frame change; the
	// hello exchange refuses mismatched versions. v2 added the liveness
	// frames (ping/pong) and the resume handshake (resume + the
	// subscribed frame's resumed flag); v3 added the typed refuse frame
	// (hello admission control); v4 added credit-window flow control
	// (the hello's window grant, its echo on begin/subscribed, and the
	// ack frame's cumulative consumed-chunk count); v5 widened the hello
	// with a trace ID, minted by the dialing peer so both processes'
	// telemetry spans for one session carry the same ID; v6 added the
	// stream-error frame's refuse code, so a stream refused by admission
	// control is as typed as a refused hello. None is wire-compatible
	// with its predecessor.
	protocolVersion = 6

	// maxFramePayload caps one frame's payload (type byte excluded).
	// Chunked transfers stay far below it; it exists so unchunked
	// transfers have a hard ceiling and garbage length prefixes error
	// out instead of allocating.
	maxFramePayload = 16 << 20

	// headerSize is the length prefix plus the type byte.
	headerSize = 5

	// chunkHeaderSize is a chunk frame's header: headerSize plus the
	// stream id.
	chunkHeaderSize = headerSize + 4

	// maxBatch caps the chunk frames one vectored write carries. A batch
	// is as large as the sender's credit, and the credit window is the
	// peer's to grant (up to maxWindow), so the cap bounds the header and
	// iovec scratch a session keeps; 64 frames already pay the lock,
	// deadline and syscall once per 256 KiB at the default budget.
	maxBatch = 64
)

// Credit-window bounds. The receiver grants the sender a per-stream
// window of chunk credits in its hello; the sender pipelines up to that
// many unacked chunks before parking.
const (
	// DefaultWindow is the per-stream credit window when a config
	// leaves it zero: deep enough to hide an ack round-trip per chunk
	// at the default budget, small enough that a rejection's overrun
	// (at most window·chunk bytes shipped past the failure) stays
	// a rounding error against whole-fragment shipping.
	DefaultWindow = 32

	// maxWindow caps the window a host will honor regardless of what a
	// hello asks for: a hostile 2³¹-chunk grant must never translate
	// into unbounded sender-side pipelining or receiver-side buffering.
	maxWindow = 4096
)

// clampWindow resolves a wire-requested window against a host-side cap
// into the effective per-stream credit window: always in [1, maxWindow]
// (a zero grant would deadlock the sender; an absurd one is a memory
// grant nobody made), and never above the cap when one is set.
func clampWindow(req, cap int) int {
	w := req
	if w < 1 {
		w = 1
	}
	if w > maxWindow {
		w = maxWindow
	}
	if cap > 0 && w > cap {
		w = cap
	}
	return w
}

// frameType discriminates the session protocol's frames.
type frameType uint8

const (
	frameInvalid frameType = iota
	// frameHello (client→server) opens a session: version, chunk
	// budget, design digest.
	frameHello
	// frameWelcome (server→client) accepts it: version, digest echo.
	frameWelcome
	// frameError (either direction) is session-fatal: a message.
	frameError
	// frameVerdictReq (client→server) asks the peer hosting fn to
	// validate its document: request id, fn.
	frameVerdictReq
	// frameVerdict (server→client) answers: request id, verdict.
	frameVerdict
	// frameOpen (client→server) requests fn's fragment as a chunked
	// stream: stream id, fn.
	frameOpen
	// frameBegin (server→client) accepts: stream id, total serialized
	// size. Chunks follow.
	frameBegin
	// frameChunk (server→client) carries one chunk: stream id, bytes.
	// The sender pipelines up to the stream's credit window of unacked
	// chunks, then parks until acks replenish its credits — sliding-
	// window backpressure (a window of 1 degenerates to stop-and-wait).
	frameChunk
	// frameAck (client→server) replenishes the sender's credits: stream
	// id plus the receiver's cumulative count of consumed chunks. Acks
	// are cumulative, so a duplicated or reordered ack is idempotent —
	// it can never grant credits twice.
	frameAck
	// frameEnd (server→client) closes a fully-sent stream: stream id.
	frameEnd
	// frameReject (client→server) halts a transfer mid-stream: stream
	// id, reason. The sender stops serializing immediately.
	frameReject
	// frameStreamErr (server→client) fails one stream without killing
	// the session: stream id, RefuseCode (0: not a refusal), reason.
	frameStreamErr
	// frameVerdictCancel (client→server) withdraws a verdict request
	// whose round was short-circuited: request id. The host cancels the
	// in-flight validation so remote peers stop mid-document, exactly
	// as in-process peers do.
	frameVerdictCancel
	// frameSubscribe (client→server) opens a live subscription on fn's
	// edit log: stream id, fn. The host answers with frameSubscribed,
	// streams the keyed snapshot as chunk frames (acked like any
	// fragment transfer, ended by frameEnd), then ships edits.
	frameSubscribe
	// frameSubscribed (server→client) accepts a subscription: stream
	// id, snapshot version, snapshot size. Snapshot chunks follow.
	frameSubscribed
	// frameEdit (server→client) carries one edit of the subscribed
	// log: stream id, version, op, prefix address, payload document.
	// The sender waits for frameEditAck before shipping the next edit —
	// the same stop-and-wait backpressure fragment chunks get.
	frameEdit
	// frameEditAck (client→server) acknowledges an edit: stream id,
	// version.
	frameEditAck
	// frameVerdictUpdate (client→server) reports the kernel peer's
	// global verdict after it applied an edit: stream id, version,
	// verdict — how the editing site learns whether the federation
	// still accepts its fragment.
	frameVerdictUpdate
	// framePing (either direction) is the liveness probe: a token id.
	// The receiver answers framePong with the same token. The kernel
	// peer pings on its heartbeat interval whenever the session is
	// otherwise idle, so both ends always see traffic within one
	// heartbeat and a dead peer is detected within the liveness window.
	framePing
	// framePong (either direction) answers a ping: the echoed token.
	framePong
	// frameResume (client→server) reopens a live subscription after a
	// disconnect: stream id, the last edit version the kernel peer
	// applied, fn. The host answers frameSubscribed — with the resumed
	// flag set and no snapshot when its log still covers the suffix, or
	// with a fresh full snapshot when the log was compacted past it.
	frameResume
	// frameRefuse (server→client) answers a hello the host will not
	// serve: a RefuseCode plus a reason. Unlike frameError it names the
	// cause on the wire — unknown design digest, admission control — so
	// the dialing peer surfaces a typed error (ErrUnknownDesign,
	// ErrOverCapacity) instead of a generic session failure.
	frameRefuse
	frameTypeEnd // sentinel: first invalid type
)

// frame is the decoded form of every frame type; unused fields are
// zero. data aliases the reader's buffer and is valid until the next
// read.
type frame struct {
	typ  frameType
	id   uint32   // stream / request id; chunk budget rides here for hello
	size uint64   // announced fragment size (begin), snapshot size (subscribed)
	ver  uint64   // edit-log version (subscribed/edit/editAck/verdictUpdate/resume); cumulative consumed-chunk count (ack); trace ID (hello)
	win  uint32   // credit window: requested (hello), effective echo (begin/subscribed)
	flag byte     // verdict (verdict/verdictUpdate), version (hello/welcome), op (edit), resumed (subscribed), refuse code (refuse/streamErr)
	str  string   // fn (open/verdictReq/subscribe/resume), reason (reject/streamErr/error)
	addr []uint64 // prefix address (edit); decoded fresh per frame
	data []byte   // chunk payload (chunk), digest (hello/welcome), edit payload (edit)
}

// maxEditAddr caps an edit's address length (tree depth on the editing
// peer); 4096 is far beyond any real document and keeps a hostile count
// from forcing a large allocation.
const maxEditAddr = 4096

// fixedLen is the number of fixed payload bytes after the type byte,
// per frame type; variable-length tails (strings, chunk bytes, digests)
// follow them.
func (t frameType) fixedLen() (int, error) {
	switch t {
	case frameHello:
		return 17, nil // version + chunk budget + window grant + trace ID
	case frameWelcome:
		return 1, nil // version
	case frameError:
		return 0, nil
	case frameVerdictReq, frameOpen, frameEnd, frameReject, frameChunk, frameVerdictCancel, frameSubscribe, framePing, framePong:
		return 4, nil // id
	case frameVerdict:
		return 5, nil // id + verdict
	case frameStreamErr:
		return 5, nil // id + refuse code
	case frameRefuse:
		return 1, nil // refuse code
	case frameAck:
		return 12, nil // id + cumulative consumed-chunk count
	case frameBegin:
		return 16, nil // id + size + effective window
	case frameEditAck, frameResume:
		return 12, nil // id + version
	case frameVerdictUpdate:
		return 13, nil // id + version + verdict
	case frameEdit:
		return 15, nil // id + version + op + address length
	case frameSubscribed:
		return 25, nil // id + version + snapshot size + resumed flag + effective window
	}
	return 0, codecErrf("transport: unknown frame type %d", t)
}

// frameWriter encodes frames onto one stream; callers serialize access
// (the TCP conn holds a write mutex). The scratch buffers are reused, so
// steady-state encoding is allocation-free.
type frameWriter struct {
	w    io.Writer
	buf  []byte
	hdrs []byte      // reused chunk-frame headers, chunkHeaderSize per frame of a batch
	vec  [][]byte    // reused net.Buffers backing for vectored chunk writes
	bufs net.Buffers // reused WriteTo cursor (it consumes the slice in place)
	ob   Observer    // observation seam (nil: no-op)
	sess uint64      // session trace ID tagged onto observed frames
}

// write encodes and writes one frame.
func (fw *frameWriter) write(f frame) error { return fw.writeAs(f, Control, "") }

// writeAs is write with the sender's label for the observer: the kind
// of an envelope frame only its sender can tell apart (see Kind), and
// the docking point it concerns.
func (fw *frameWriter) writeAs(f frame, kind Kind, fn string) error {
	fixed, err := f.typ.fixedLen()
	if err != nil {
		return err
	}
	if f.typ == frameEdit && len(f.addr) > maxEditAddr {
		return fmt.Errorf("transport: edit address of %d components exceeds the %d limit", len(f.addr), maxEditAddr)
	}
	payload := 1 + fixed + 8*len(f.addr) + len(f.str) + len(f.data)
	if payload-1 > maxFramePayload {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit (chunk the transfer)",
			payload-1, maxFramePayload)
	}
	need := 4 + payload
	if cap(fw.buf) < need {
		fw.buf = make([]byte, 0, max(need, 4096))
	}
	b := fw.buf[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(payload))
	b = append(b, byte(f.typ))
	switch f.typ {
	case frameHello:
		b = append(b, f.flag)
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint32(b, f.win)
		b = binary.BigEndian.AppendUint64(b, f.ver)
	case frameWelcome:
		b = append(b, f.flag)
	case frameVerdict, frameStreamErr:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = append(b, f.flag)
	case frameRefuse:
		b = append(b, f.flag)
	case frameAck:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, f.ver)
	case frameBegin:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, f.size)
		b = binary.BigEndian.AppendUint32(b, f.win)
	case frameSubscribed:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, f.ver)
		b = binary.BigEndian.AppendUint64(b, f.size)
		b = append(b, f.flag)
		b = binary.BigEndian.AppendUint32(b, f.win)
	case frameEditAck, frameResume:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, f.ver)
	case frameVerdictUpdate:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, f.ver)
		b = append(b, f.flag)
	case frameEdit:
		b = binary.BigEndian.AppendUint32(b, f.id)
		b = binary.BigEndian.AppendUint64(b, f.ver)
		b = append(b, f.flag)
		b = binary.BigEndian.AppendUint16(b, uint16(len(f.addr)))
		for _, k := range f.addr {
			b = binary.BigEndian.AppendUint64(b, k)
		}
	case frameError:
	default:
		b = binary.BigEndian.AppendUint32(b, f.id)
	}
	b = append(b, f.str...)
	b = append(b, f.data...)
	fw.buf = b
	if fw.ob != nil { // before the write: see Observer
		observe(fw.ob, Out, fw.sess, &f, kind, fn, b, nil)
	}
	_, err = fw.w.Write(b)
	return err
}

// writeChunks writes n chunk frames of stream id — doc's consecutive
// chunks from off, cut by nextChunk (see chunkBatch for n) — with one
// vectored write: each frame's 9-byte header (length prefix, type,
// stream id) is assembled in the writer's reused header scratch and
// handed to the socket *together with* its payload via net.Buffers —
// one writev on a TCP conn, no copy of the chunk bytes. Each frame's
// bytes are those write produces for it, and each frame is observed
// before the write, in order. It returns the offset after the last
// frame. This is the wire's hot path; every other frame type goes
// through the general write above.
func (fw *frameWriter) writeChunks(id uint32, doc []byte, off, budget, n int) (int, error) {
	if first := min(budget, len(doc)-off); first > maxFramePayload-4 {
		return off, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit (chunk the transfer)",
			first+4, maxFramePayload)
	}
	if len(fw.hdrs) < n*chunkHeaderSize {
		fw.hdrs = make([]byte, n*chunkHeaderSize)
		fw.vec = make([][]byte, 0, 2*n)
	}
	vec := fw.vec[:0]
	for i := range n {
		data := nextChunk(doc, off, budget)
		h := fw.hdrs[i*chunkHeaderSize : (i+1)*chunkHeaderSize]
		binary.BigEndian.PutUint32(h[0:4], uint32(1+4+len(data)))
		h[4] = byte(frameChunk)
		binary.BigEndian.PutUint32(h[5:9], id)
		if fw.ob != nil { // before the write, as in write
			observe(fw.ob, Out, fw.sess, &frame{typ: frameChunk, id: id, data: data}, Control, "", h, data)
		}
		vec = append(vec, h, data)
		off += len(data)
	}
	fw.bufs = net.Buffers(vec)
	_, err := fw.bufs.WriteTo(fw.w)
	clear(vec) // do not pin the payloads past the write
	fw.bufs = nil
	return off, err
}

// frameReader decodes frames from one stream. The payload buffer is
// reused: a decoded frame's str/data alias it and are valid until the
// next read — the same lifetime contract Fragment.Next exposes.
type frameReader struct {
	r    *bufio.Reader
	buf  []byte
	obs  *obs.Collector // decode timing sink (nil: no-op)
	ob   Observer       // observation seam (nil: no-op)
	sess uint64         // session trace ID tagged onto observed frames

	hdr [headerSize]byte // reused frame header (a local would escape via the observer)
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 32<<10)}
}

// read decodes the next frame. Truncated input yields io.ErrUnexpectedEOF
// (clean EOF between frames yields io.EOF); oversized or malformed
// frames yield a descriptive error. It never panics on garbage.
func (fr *frameReader) read() (frame, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return frame{}, fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return frame{}, err
	}
	// The decode timer starts once the length prefix has arrived: the
	// wait for it is idle time between frames, not decode cost.
	start := fr.obs.Nanos()
	length := binary.BigEndian.Uint32(hdr[:4])
	if length == 0 {
		return frame{}, codecErrf("transport: empty frame (missing type byte)")
	}
	if length-1 > maxFramePayload {
		return frame{}, codecErrf("transport: frame of %d bytes exceeds the %d-byte limit", length-1, maxFramePayload)
	}
	if _, err := io.ReadFull(fr.r, hdr[4:5]); err != nil {
		return frame{}, fmt.Errorf("transport: truncated frame: %w", unexpected(err))
	}
	f := frame{typ: frameType(hdr[4])}
	if f.typ == frameInvalid || f.typ >= frameTypeEnd {
		return frame{}, codecErrf("transport: unknown frame type %d", hdr[4])
	}
	fixed, err := f.typ.fixedLen()
	if err != nil {
		return frame{}, err
	}
	rest := int(length) - 1
	if rest < fixed {
		return frame{}, codecErrf("transport: %d-byte payload too short for frame type %d", rest, f.typ)
	}
	if cap(fr.buf) < rest {
		fr.buf = make([]byte, 0, max(rest, 4096))
	}
	p := fr.buf[:rest]
	fr.buf = p
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return frame{}, fmt.Errorf("transport: truncated frame: %w", unexpected(err))
	}
	tail := p[fixed:]
	switch f.typ {
	case frameHello:
		f.flag = p[0]
		f.id = binary.BigEndian.Uint32(p[1:5])
		f.win = binary.BigEndian.Uint32(p[5:9])
		f.ver = binary.BigEndian.Uint64(p[9:17])
		f.data = tail
	case frameWelcome:
		f.flag = p[0]
		f.data = tail
	case frameError:
		f.str = string(tail)
	case frameRefuse:
		f.flag = p[0]
		f.str = string(tail)
	case frameVerdict:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.flag = p[4]
	case frameBegin:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.size = binary.BigEndian.Uint64(p[4:12])
		f.win = binary.BigEndian.Uint32(p[12:16])
	case frameChunk:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.data = tail
	case frameVerdictReq, frameOpen, frameSubscribe, frameResume:
		f.id = binary.BigEndian.Uint32(p[0:4])
		if f.typ == frameResume {
			f.ver = binary.BigEndian.Uint64(p[4:12])
		}
		f.str = string(tail)
	case frameEnd, frameVerdictCancel, framePing, framePong:
		f.id = binary.BigEndian.Uint32(p[0:4])
		if len(tail) != 0 {
			return frame{}, codecErrf("transport: unexpected %d-byte tail on frame type %d", len(tail), f.typ)
		}
	case frameAck:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.ver = binary.BigEndian.Uint64(p[4:12])
		if len(tail) != 0 {
			return frame{}, codecErrf("transport: unexpected %d-byte tail on frame type %d", len(tail), f.typ)
		}
	case frameSubscribed:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.ver = binary.BigEndian.Uint64(p[4:12])
		f.size = binary.BigEndian.Uint64(p[12:20])
		f.flag = p[20]
		f.win = binary.BigEndian.Uint32(p[21:25])
		if len(tail) != 0 {
			return frame{}, codecErrf("transport: unexpected %d-byte tail on frame type %d", len(tail), f.typ)
		}
	case frameEditAck:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.ver = binary.BigEndian.Uint64(p[4:12])
		if len(tail) != 0 {
			return frame{}, codecErrf("transport: unexpected %d-byte tail on frame type %d", len(tail), f.typ)
		}
	case frameVerdictUpdate:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.ver = binary.BigEndian.Uint64(p[4:12])
		f.flag = p[12]
		if len(tail) != 0 {
			return frame{}, codecErrf("transport: unexpected %d-byte tail on frame type %d", len(tail), f.typ)
		}
	case frameEdit:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.ver = binary.BigEndian.Uint64(p[4:12])
		f.flag = p[12]
		n := int(binary.BigEndian.Uint16(p[13:15]))
		if n > maxEditAddr {
			return frame{}, codecErrf("transport: edit address of %d components exceeds the %d limit", n, maxEditAddr)
		}
		if len(tail) < 8*n {
			return frame{}, codecErrf("transport: edit frame too short for a %d-component address", n)
		}
		if n > 0 {
			f.addr = make([]uint64, n)
			for i := range f.addr {
				f.addr[i] = binary.BigEndian.Uint64(tail[8*i:])
			}
		}
		f.data = tail[8*n:]
	case frameReject:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.str = string(tail)
	case frameStreamErr:
		f.id = binary.BigEndian.Uint32(p[0:4])
		f.flag = p[4]
		f.str = string(tail)
	}
	if fr.ob != nil {
		observe(fr.ob, In, fr.sess, &f, Control, "", hdr, p)
	}
	fr.obs.Observe(obs.HFrameDecodeNs, fr.obs.Nanos()-start)
	fr.obs.Add(obs.CFramesDecoded, 1)
	return f, nil
}

// unexpected maps a clean EOF in the middle of a frame to
// io.ErrUnexpectedEOF, so truncation is always distinguishable from a
// clean close between frames.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// wireChunk encodes a chunk budget for the hello frame: budgets at or
// above the uint32 ceiling (notably the unchunked math.MaxInt sentinel)
// travel as MaxUint32.
func wireChunk(budget int) uint32 {
	if budget <= 0 || budget >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(budget)
}

// budgetFromWire decodes it. wireChunk never sends 0, and a zero
// budget would cut empty chunks forever, so a hostile 0 is unchunked
// too.
func budgetFromWire(w uint32) int {
	if w == math.MaxUint32 || w == 0 {
		return math.MaxInt
	}
	return int(w)
}
