package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Observer is the wire's one observation seam: it receives one Event
// per frame a session writes or reads and one per abnormal session
// death. The flight recorder, the postmortem trigger and a multi-tenant
// host's traffic counters are reducers over these events, so a host
// counts exactly what it captures. A nil Observer costs the hot paths
// one nil check. Implementations must be safe for concurrent use: a
// session emits from its read and write goroutines at once, and a host
// shares its observer across sessions. Outgoing frames are observed
// before they are written, so recordings keep causal order and a client
// that has read a frame finds it counted.
type Observer interface {
	Observe(Event)
}

// Event is one observed frame or session failure. Head and Tail are
// the frame's exact wire bytes (Tail is set only when the frame was
// written or read in two parts); they alias reused codec buffers and
// are valid only during the call, so an observer that keeps them must
// copy.
type Event struct {
	Kind       Kind
	Dir        Dir
	Sess       uint64 // session trace ID (zero before the hello established one)
	Stream     uint32 // stream or request id
	Fn         string // docking point, on the kinds the sender labels
	Cost       int    // protocol byte cost, as p2p.Stats counts it
	Head, Tail []byte
	Err        error // why the session died (Failed only)
}

// Kind says what an Event is. Chunk through VerdictUpdate are the
// traffic p2p.Stats counts. Verdict, Delivered, Subscribed and Resumed
// label envelope frames only their sender can tell apart; a receiver
// observes them as Control.
type Kind uint8

const (
	Control       Kind = iota // a frame the protocol does not count
	Chunk                     // a fragment or snapshot chunk: one frame, its payload
	Verdict                   // an answered verdict request: one message, EnvelopeCost
	Delivered                 // a delivered fragment's end frame: one message, EnvelopeCost
	Subscribed                // a fresh subscription's announcement: one message, EnvelopeCost
	Resumed                   // a resumed subscription's announcement: recovery, no cost
	Edit                      // a live edit: one message, EditFrame.WireSize
	VerdictUpdate             // a global verdict after an edit: one message, VerdictUpdateCost
	Failed                    // an abnormal session death (not a clean close): no frame
)

// Dir is the direction of an observed frame relative to the observing
// process: Out frames left it, In frames arrived.
type Dir uint8

const (
	Out Dir = iota
	In
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// EnvelopeCost is the protocol byte cost of a verdict and of a
// fragment's or subscription's envelope.
func EnvelopeCost(fn string) int { return len(fn) + 1 }

// observe hands o the event of frame f crossing the wire as head and
// tail: classed by its type, or by its sender's label kind.
func observe(o Observer, dir Dir, sess uint64, f *frame, kind Kind, fn string, head, tail []byte) {
	ev := Event{Kind: kind, Dir: dir, Sess: sess, Stream: f.id, Fn: fn, Head: head, Tail: tail}
	switch {
	case f.typ == frameChunk:
		ev.Kind, ev.Cost = Chunk, len(f.data)
	case f.typ == frameEdit:
		ev.Kind, ev.Cost = Edit, EditFrame{Addr: f.addr, Doc: f.data}.WireSize()
	case f.typ == frameVerdictUpdate:
		ev.Kind, ev.Cost = VerdictUpdate, VerdictUpdateCost
	case kind == Verdict || kind == Delivered || kind == Subscribed:
		ev.Cost = EnvelopeCost(fn)
	}
	o.Observe(ev)
}

// observers hands each event to both members in order.
type observers [2]Observer

func (os observers) Observe(ev Event) { os[0].Observe(ev); os[1].Observe(ev) }

// join is the observer handing each event to a, then b; either may be
// nil.
func join(a, b Observer) Observer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return observers{a, b}
}

// frameTypeNames maps wire frame types to the stable names DecodeFrame
// reports and `dxml inspect` prints.
var frameTypeNames = [frameTypeEnd]string{
	frameInvalid:       "invalid",
	frameHello:         "hello",
	frameWelcome:       "welcome",
	frameError:         "error",
	frameVerdictReq:    "verdict_req",
	frameVerdict:       "verdict",
	frameOpen:          "open",
	frameBegin:         "begin",
	frameChunk:         "chunk",
	frameAck:           "ack",
	frameEnd:           "end",
	frameReject:        "reject",
	frameStreamErr:     "stream_err",
	frameVerdictCancel: "verdict_cancel",
	frameSubscribe:     "subscribe",
	frameSubscribed:    "subscribed",
	frameEdit:          "edit",
	frameEditAck:       "edit_ack",
	frameVerdictUpdate: "verdict_update",
	framePing:          "ping",
	framePong:          "pong",
	frameResume:        "resume",
	frameRefuse:        "refuse",
}

// FrameTypeName names a wire frame-type byte ("chunk", "ack", ...);
// unknown types format as "type(N)".
func FrameTypeName(kind uint8) string {
	if int(kind) < len(frameTypeNames) && frameTypeNames[kind] != "" {
		return frameTypeNames[kind]
	}
	return fmt.Sprintf("type(%d)", kind)
}

// FrameInfo is one wire frame decoded for inspection: the stable type
// name plus every field the frame carries (unused fields are zero).
// Data aliases the input buffer. WireLen is the frame's full on-wire
// length (4-byte prefix included), which may exceed len(input) when the
// capture truncated the frame under a per-frame cap — then Truncated is
// set and only the header fields are populated.
type FrameInfo struct {
	Type      string // stable name ("hello", "chunk", ...)
	Kind      uint8  // raw frame-type byte
	Stream    uint32 // stream / request id (chunk budget for hello)
	Size      uint64
	Ver       uint64
	Win       uint32
	Flag      byte
	Str       string
	Data      []byte
	WireLen   int // full frame length on the wire, 4-byte prefix included
	Truncated bool
}

// streamIDFirst reports whether t's fixed payload begins with the
// 4-byte stream/request id (every type except the session-level hello,
// welcome, error, and refuse frames).
func streamIDFirst(t frameType) bool {
	switch t {
	case frameHello, frameWelcome, frameError, frameRefuse:
		return false
	}
	return true
}

// DecodeFrame decodes one frame's wire bytes (as an Observer saw them:
// length prefix, type byte, payload) for offline inspection. A complete
// frame decodes through the same reader the live wire (and the codec
// fuzzer) uses; a frame cut short by a capture's per-frame cap yields a
// Truncated FrameInfo with the type and — when enough bytes survive —
// the stream id. Garbage errors out; it never panics.
func DecodeFrame(wire []byte) (FrameInfo, error) {
	if len(wire) < headerSize {
		return FrameInfo{}, fmt.Errorf("transport: %d bytes is too short for a frame header", len(wire))
	}
	length := binary.BigEndian.Uint32(wire[:4])
	if length == 0 {
		return FrameInfo{}, codecErrf("transport: empty frame (missing type byte)")
	}
	if length-1 > maxFramePayload {
		return FrameInfo{}, codecErrf("transport: frame of %d bytes exceeds the %d-byte limit", length-1, maxFramePayload)
	}
	total := 4 + int(length)
	if len(wire) < total {
		// Truncated by the capture cap: report what the surviving prefix
		// pins down.
		t := frameType(wire[4])
		if t == frameInvalid || t >= frameTypeEnd {
			return FrameInfo{}, codecErrf("transport: unknown frame type %d", wire[4])
		}
		info := FrameInfo{Type: FrameTypeName(wire[4]), Kind: wire[4], WireLen: total, Truncated: true}
		if streamIDFirst(t) && len(wire) >= headerSize+4 {
			info.Stream = binary.BigEndian.Uint32(wire[headerSize : headerSize+4])
		}
		return info, nil
	}
	fr := newFrameReader(bytes.NewReader(wire[:total]))
	f, err := fr.read()
	if err != nil {
		return FrameInfo{}, err
	}
	return FrameInfo{
		Type: FrameTypeName(byte(f.typ)), Kind: byte(f.typ),
		Stream: f.id, Size: f.size, Ver: f.ver, Win: f.win, Flag: f.flag,
		Str: f.str, Data: f.data, WireLen: total,
	}, nil
}
