// Package transport is the wire layer of the p2p federation: it moves
// verdicts, chunked fragment streams and live edit feeds between the
// kernel peer and the resource peers. The protocol is written once, as
// the length-prefixed binary frames a Host serves and a Conn speaks;
// Dial runs it over TCP and Pipe over an in-memory connection, so an
// in-process session gets the TCP host's routing, admission, refusals,
// deadlines and accounting by construction. InProc is the one
// exception: one-shot rounds (verdicts and fragment transfers) served
// by direct calls, with chunks handed over as slices of the source's
// bytes, kept because it is cheaper than the codec.
//
// Every wire that carries frames has one observation seam: an Observer
// receives each frame a session writes or reads and each abnormal
// session death, as an Event that also carries the frame's protocol
// byte cost. Both session ends speak through one framed endpoint (one
// locked write with its deadline, one read deadline, one ping echo),
// and every credit-windowed stream is received by one chunk receiver.
//
// The abstraction is asymmetric, matching the paper's model: resource
// peers are passive *sources* (they answer verdict requests and stream
// their document on demand), and the kernel peer drives a *session*
// against them. A fragment transfer is credit-windowed: the receiver
// grants a window of N chunk credits at session open (negotiated in the
// hello and echoed per stream in the begin frame), the sender
// cuts its document's serialized bytes into fixed-budget chunks —
// slices of those bytes, never copies — and pipelines up to N of them
// unacked. Each credit grant costs one write: every chunk the sender's
// credit allows goes out in one vectored write, under one lock and one
// deadline. The receiver acks cumulatively, once every max(1, N/2)
// consumed chunks, so one ack frame replenishes that many credits. A
// window of 1 is exactly the classic stop-and-wait wire: one ack and
// one write per chunk. A rejection reaches the sender while at most one
// window of chunks is in flight, so all bytes past sent+window never
// travel — the communication win recorded in the federation's
// Stats.BytesSaved is real on every wire, diminished by at most
// window·chunk bytes of in-flight credit (InProc cuts a chunk only
// when the receiver asks for it, so nothing is in flight). What a
// rejection saves is wire bytes: the source's serialization is
// captured in full before its first chunk (the p2p resource peers
// build theirs once per document version), and that build is not
// undone.
//
// Protocol guarantees, pinned by the differential tests in
// internal/p2p:
//
//   - chunk boundaries depend only on the configured budget, so frame
//     counts and delivered-byte totals are transport- and
//     window-invariant;
//   - a fragment's announced size is the length of the bytes it
//     ships: both come from one Serialize call;
//   - Abort halts the sender mid-transfer; bytes past the failure point
//     plus at most one window of credit are never shipped;
//   - a duplicated or stale ack never grants credit twice: acks carry a
//     cumulative consumed-chunk count, so replaying one is a no-op;
//   - a session is bound to a design digest: the hello refuses to pair
//     peers running different designs;
//   - a refusal is typed: a hello or a stream refused by admission
//     control unwraps to ErrUnknownDesign or ErrOverCapacity.
package transport

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
)

// Source is one hosted docking point, the sender side of the transport:
// the resource peer's document and local type behind a minimal surface.
type Source interface {
	// Verdict validates the peer's document against its local type;
	// implementations should poll ctx so a short-circuited round stops
	// mid-document.
	Verdict(ctx context.Context) bool
	// Serialize writes the document's serialization to w. The bytes
	// written must not change after the Write that carried them
	// returns: the transport keeps them without a copy, announces
	// their length as the fragment's size, and cuts its chunks as
	// slices of them. A source that holds its serialization ready-made
	// (as the p2p peers' cached bytes are) writes it in one piece.
	Serialize(w io.Writer) error
}

// Session is the kernel peer's view of the federation: request a
// verdict from the peer behind a docking point, or open its fragment as
// a chunked stream. Implementations must support concurrent Verdict
// calls and concurrently open fragments.
type Session interface {
	Verdict(ctx context.Context, fn string) (bool, error)
	Open(ctx context.Context, fn string) (Fragment, error)
	Close() error
}

// Fragment is the receiver side of one fragment transfer. Next returns
// consecutive chunks (valid until the following call) and io.EOF after
// the last; consuming chunks replenishes the sender's credits, and a
// sender out of credit parks — windowed backpressure. Abort rejects the
// transfer mid-stream: the sender halts within its credit window and
// the remaining bytes never travel.
type Fragment interface {
	// Size is the announced total serialized size of the fragment.
	Size() int
	Next() ([]byte, error)
	Abort()
}

// Multi routes a session per docking point, so a kernel peer can
// federate hosts that each serve a subset of the docking points.
// Sessions may be shared between functions; Close closes each distinct
// session once.
type Multi map[string]Session

func (m Multi) session(fn string) (Session, error) {
	s, ok := m[fn]
	if !ok {
		return nil, fmt.Errorf("transport: no session for docking point %s", fn)
	}
	return s, nil
}

func (m Multi) Verdict(ctx context.Context, fn string) (bool, error) {
	s, err := m.session(fn)
	if err != nil {
		return false, err
	}
	return s.Verdict(ctx, fn)
}

func (m Multi) Open(ctx context.Context, fn string) (Fragment, error) {
	s, err := m.session(fn)
	if err != nil {
		return nil, err
	}
	return s.Open(ctx, fn)
}

func (m Multi) Close() error {
	closed := map[Session]bool{}
	var first error
	for _, s := range m {
		if closed[s] {
			continue
		}
		closed[s] = true
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Digest fingerprints a design from its canonical parts (kernel term,
// type sources, …): the TCP hello exchanges it so a serve and a join
// running different designs fail fast instead of producing a verdict
// about nothing.
func Digest(parts ...string) []byte {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "%d:", len(p))
		io.WriteString(h, p)
	}
	return h.Sum(nil)
}
