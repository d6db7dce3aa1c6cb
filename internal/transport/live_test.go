package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeLiveSource is a fakeSource with an edit log: a fixed snapshot
// plus edits published by the test.
type fakeLiveSource struct {
	fakeSource
	version uint64

	mu      sync.Mutex
	edits   []EditFrame
	changed chan struct{}

	verdictMu sync.Mutex
	verdicts  []bool
	opens     int
	closes    int
	verdictCh chan bool     // one send per NoteVerdict
	released  chan struct{} // closed when every open feed has closed
}

func newFakeLive(snapshot []byte, version uint64) *fakeLiveSource {
	return &fakeLiveSource{
		fakeSource: fakeSource{blob: snapshot, verdict: true},
		version:    version,
		changed:    make(chan struct{}),
		verdictCh:  make(chan bool, 64),
		released:   make(chan struct{}),
	}
}

func (s *fakeLiveSource) publish(e EditFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.edits = append(s.edits, e)
	close(s.changed)
	s.changed = make(chan struct{})
}

func (s *fakeLiveSource) OpenLive(ctx context.Context) (LiveFeedSrc, error) {
	s.verdictMu.Lock()
	s.opens++
	s.verdictMu.Unlock()
	return &fakeLiveFeed{src: s, base: s.version}, nil
}

// OpenLiveSince completes LiveSource: the fake's log always
// starts at its fixed base version, so a resume is possible iff `after`
// is not before it (and not ahead of what was published).
func (s *fakeLiveSource) OpenLiveSince(ctx context.Context, after uint64) (LiveFeedSrc, bool, error) {
	s.mu.Lock()
	covered := after >= s.version && after <= s.version+uint64(len(s.edits))
	s.mu.Unlock()
	if !covered {
		return s.openFull(ctx)
	}
	s.verdictMu.Lock()
	s.opens++
	s.verdictMu.Unlock()
	return &fakeLiveFeed{src: s, base: after, empty: true}, true, nil
}

// OpenLive's two return values as a three-value resume fallback.
func (s *fakeLiveSource) openFull(ctx context.Context) (LiveFeedSrc, bool, error) {
	lf, err := s.OpenLive(ctx)
	return lf, false, err
}

type fakeLiveFeed struct {
	src   *fakeLiveSource
	base  uint64
	empty bool // resumed: no snapshot bytes
}

func (f *fakeLiveFeed) Version() uint64 { return f.base }
func (f *fakeLiveFeed) Serialize(w io.Writer) error {
	if f.empty {
		return nil
	}
	return f.src.Serialize(w)
}

func (f *fakeLiveFeed) NextEdit(ctx context.Context, after uint64) (EditFrame, error) {
	idx := int(after - f.src.version)
	for {
		f.src.mu.Lock()
		if idx < len(f.src.edits) {
			e := f.src.edits[idx]
			f.src.mu.Unlock()
			return e, nil
		}
		ch := f.src.changed
		f.src.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return EditFrame{}, ctx.Err()
		}
	}
}

func (f *fakeLiveFeed) NoteVerdict(version uint64, valid bool) {
	f.src.verdictMu.Lock()
	f.src.verdicts = append(f.src.verdicts, valid)
	f.src.verdictMu.Unlock()
	f.src.verdictCh <- valid
}

func (f *fakeLiveFeed) Close() {
	f.src.verdictMu.Lock()
	defer f.src.verdictMu.Unlock()
	f.src.closes++
	if f.src.closes == f.src.opens {
		select {
		case <-f.src.released:
		default:
			close(f.src.released)
		}
	}
}

// TestSubscribeConformance drives a live subscription over a pipe and
// over TCP: the snapshot arrives chunked and intact, edits arrive in
// order with their addresses and payloads, verdict updates reach the
// source, and unsubscribing releases it.
func TestSubscribeConformance(t *testing.T) {
	snapshot := blob(300)
	edits := []EditFrame{
		{Version: 8, Op: 1, Addr: []uint64{1 << 32}, Doc: []byte("<a/>\n")},
		{Version: 9, Op: 3, Addr: []uint64{1 << 32, 2 << 32}},
		{Version: 10, Op: 2, Addr: []uint64{7}, Doc: []byte("<b>\n  <c/>\n</b>\n")},
	}
	run := func(t *testing.T, s Session) {
		ls, ok := s.(LiveSession)
		if !ok {
			t.Fatalf("%T does not implement LiveSession", s)
		}
		src := currentLiveSource
		feed, err := ls.Subscribe(context.Background(), "f1")
		if err != nil {
			t.Fatal(err)
		}
		if feed.Base() != 7 || feed.SnapshotSize() != len(snapshot) {
			t.Fatalf("cut: base %d size %d, want 7 %d", feed.Base(), feed.SnapshotSize(), len(snapshot))
		}
		var got bytes.Buffer
		for {
			chunk, err := feed.NextChunk()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(chunk) > 64 {
				t.Fatalf("chunk of %d bytes over budget 64", len(chunk))
			}
			got.Write(chunk)
		}
		if !bytes.Equal(got.Bytes(), snapshot) {
			t.Fatalf("snapshot corrupted: %d bytes vs %d", got.Len(), len(snapshot))
		}
		go func() {
			for _, e := range edits {
				src.publish(e)
			}
		}()
		for i, want := range edits {
			e, err := feed.NextEdit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if e.Version != want.Version || e.Op != want.Op ||
				len(e.Addr) != len(want.Addr) || !bytes.Equal(e.Doc, want.Doc) {
				t.Fatalf("edit %d: got %+v want %+v", i, e, want)
			}
			for j := range want.Addr {
				if e.Addr[j] != want.Addr[j] {
					t.Fatalf("edit %d: addr %v want %v", i, e.Addr, want.Addr)
				}
			}
			if err := feed.SendVerdict(e.Version, i%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		// Verdict updates are asynchronous on TCP; wait for delivery.
		for i := 0; i < len(edits); i++ {
			select {
			case <-src.verdictCh:
			case <-time.After(2 * time.Second):
				t.Fatalf("verdict updates delivered: %d of %d", i, len(edits))
			}
		}
		if err := feed.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-src.released:
		case <-time.After(2 * time.Second):
			t.Fatal("unsubscribe never released the source feed")
		}
	}
	// Fresh source per transport (swap the shared pointer per subtest).
	t.Run("inproc", func(t *testing.T) {
		currentLiveSource = newFakeLive(snapshot, 7)
		eachPipe(t, map[string]Source{"f1": currentLiveSource}, 64, run)
	})
	t.Run("tcp", func(t *testing.T) {
		currentLiveSource = newFakeLive(snapshot, 7)
		eachTCP(t, map[string]Source{"f1": currentLiveSource}, 64, run)
	})
}

var currentLiveSource *fakeLiveSource

// eachPipe runs run against an in-process Pipe session.
func eachPipe(t *testing.T, sources map[string]Source, chunk int, run func(t *testing.T, s Session)) {
	t.Helper()
	digest := Digest("live-conformance")
	c, err := Pipe(HostConfig{Digest: digest, Sources: sources}, Config{Digest: digest, Chunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run(t, c)
}

// eachTCP dials a one-host TCP session around run.
func eachTCP(t *testing.T, sources map[string]Source, chunk int, run func(t *testing.T, s Session)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("live-conformance")
	h := NewHost(ln, HostConfig{Digest: digest, Sources: sources})
	defer h.Close()
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run(t, c)
}

// TestSubscribeNotLive: subscribing to a docking point without an
// editor fails cleanly over a pipe and over TCP.
func TestSubscribeNotLive(t *testing.T) {
	sources := map[string]Source{"f1": &fakeSource{blob: blob(10), verdict: true}}
	run := func(t *testing.T, s Session) {
		ls := s.(LiveSession)
		if _, err := ls.Subscribe(context.Background(), "f1"); err == nil || !strings.Contains(err.Error(), "not live") {
			t.Fatalf("expected a not-live error, got %v", err)
		}
		if _, err := ls.Subscribe(context.Background(), "f9"); err == nil {
			t.Fatal("expected an unknown docking point error")
		}
	}
	t.Run("inproc", func(t *testing.T) { eachPipe(t, sources, 16, run) })
	t.Run("tcp", func(t *testing.T) { eachTCP(t, sources, 16, run) })
}
