package transport

import (
	"context"
	"fmt"
	"io"
)

// This file is the live half of the wire: a kernel peer *subscribes* to
// a docking point's edit log and receives, over a Conn (TCP or Pipe),
// an atomic cut of the peer's state — a keyed snapshot of the fragment at
// some version (credit-windowed like any fragment transfer), then every
// edit after that version, in order, with stop-and-wait backpressure —
// and reports its global verdict back after each applied edit. The
// frame types are subscribe / subscribed / chunk…end (the snapshot
// reuses the fragment chunk machinery, credits included) / edit /
// edit-ack / verdict-update.

// EditFrame is one edit of a fragment's log in wire form: the dense
// version it produces, the operation (the live package's Op values),
// the edited node's prefix address, and the serialized payload subtree
// (empty for deletes). The transports move EditFrames without
// interpreting them.
type EditFrame struct {
	Version uint64
	Op      uint8
	Addr    []uint64
	Doc     []byte
}

// WireSize is the edit's frame payload size on the binary wire (type
// byte included). Both transports account edits with it, which is what
// keeps live traffic stats transport-invariant: O(‖edit‖ + depth) —
// the payload plus one address component per ancestor.
func (e EditFrame) WireSize() int {
	return 16 + 8*len(e.Addr) + len(e.Doc)
}

// VerdictUpdateCost is the protocol byte cost of one verdict update
// (type, stream id, version and verdict), identical on every wire.
const VerdictUpdateCost = 14

// LiveSource is a Source whose document is editable: it can open an
// atomic cut of its state for a subscriber, and continue an earlier
// subscriber's feed by log suffix. Hosted docking points implement it
// to become subscribable.
type LiveSource interface {
	Source
	// OpenLive returns an atomic cut: a snapshot and the edit feed
	// continuing it. The context bounds the feed's lifetime.
	OpenLive(ctx context.Context) (LiveFeedSrc, error)
	// OpenLiveSince returns a feed continuing from `after`. If the log
	// still covers the suffix, the feed's Version() is `after`, it
	// serializes no bytes (no snapshot), and resumed is true. Otherwise
	// it is a fresh full cut (resumed false).
	OpenLiveSince(ctx context.Context, after uint64) (feed LiveFeedSrc, resumed bool, err error)
}

// LiveFeedSrc is the sender side of one subscription: a consistent
// snapshot (Version and Serialize describe the same cut) plus the
// blocking edit log behind it.
type LiveFeedSrc interface {
	// Version is the snapshot's edit-log version.
	Version() uint64
	// Serialize writes the snapshot. As with Source.Serialize, the
	// bytes written must not change after the Write that carried them
	// returns.
	Serialize(w io.Writer) error
	// NextEdit blocks until the edit with version after+1 is published
	// and returns it.
	NextEdit(ctx context.Context, after uint64) (EditFrame, error)
	// NoteVerdict records the kernel peer's global verdict after it
	// applied the edit with the given version.
	NoteVerdict(version uint64, valid bool)
	// Close releases the subscription.
	Close()
}

// LiveSession is a Session that supports live subscriptions whose
// feeds survive a disconnect. Conn and Multi implement it; a kernel
// peer type-asserts.
type LiveSession interface {
	Session
	Subscribe(ctx context.Context, fn string) (EditFeed, error)
	// Resubscribe reopens a subscription from the last edit version
	// this peer applied. When the source's log still covers every edit
	// after `after`, the returned feed is Resumed(): it ships no
	// snapshot (SnapshotSize 0, NextChunk immediately EOF) and its
	// first edit carries after+1. When the log was compacted past
	// `after`, the feed is a fresh full cut, exactly like Subscribe.
	Resubscribe(ctx context.Context, fn string, after uint64) (EditFeed, error)
}

// EditFeed is the receiver side of one subscription. The protocol has
// two phases: first drain the snapshot with NextChunk until io.EOF,
// then loop on NextEdit. The snapshot phase is credit-windowed like a
// fragment transfer (the sender pipelines up to the negotiated window
// of unconsumed chunks); the edit phase is stop-and-wait — consuming an
// edit releases the sender to produce exactly one more, so a slow
// kernel peer backpressures the editing site end to end.
type EditFeed interface {
	// Base is the snapshot's version: the first edit delivered will
	// carry Base()+1.
	Base() uint64
	// SnapshotSize is the snapshot's announced size in bytes.
	SnapshotSize() int
	// NextChunk returns the snapshot's next chunk (valid until the
	// following call), io.EOF after the last.
	NextChunk() ([]byte, error)
	// NextEdit acknowledges the previous edit and blocks for the next.
	// The returned frame's Addr and Doc are valid until the following
	// call.
	NextEdit(ctx context.Context) (EditFrame, error)
	// SendVerdict reports the global verdict after applying version.
	SendVerdict(version uint64, valid bool) error
	// Resumed reports that this feed continues an earlier subscription
	// by log suffix: there is no snapshot to drain, and the first edit
	// carries Base()+1 where Base() is the version the resuming peer
	// announced. Always false for fresh subscriptions.
	Resumed() bool
	// Close unsubscribes. It does not unblock a concurrent NextEdit —
	// cancel that call's context first.
	Close() error
}

// live resolves fn's session as a live one.
func (m Multi) live(fn string) (LiveSession, error) {
	s, err := m.session(fn)
	if err != nil {
		return nil, err
	}
	ls, ok := s.(LiveSession)
	if !ok {
		return nil, fmt.Errorf("transport: session for %s does not support live subscriptions", fn)
	}
	return ls, nil
}

// Subscribe routes a live subscription to fn's session.
func (m Multi) Subscribe(ctx context.Context, fn string) (EditFeed, error) {
	ls, err := m.live(fn)
	if err != nil {
		return nil, err
	}
	return ls.Subscribe(ctx, fn)
}

// Resubscribe routes a resumed subscription to fn's session.
func (m Multi) Resubscribe(ctx context.Context, fn string, after uint64) (EditFeed, error) {
	ls, err := m.live(fn)
	if err != nil {
		return nil, err
	}
	return ls.Resubscribe(ctx, fn, after)
}
