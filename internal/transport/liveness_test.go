package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// dialPair spins up a one-source host and a dialed client with explicit
// liveness settings.
func dialPair(t *testing.T, src Source, hostTimeout, heartbeat, timeout time.Duration) (*Conn, *Host) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest("liveness")
	h := NewHost(ln, HostConfig{Digest: digest, Sources: map[string]Source{"f1": src}, Timeout: hostTimeout})
	c, err := Dial(h.Addr().String(), Config{Digest: digest, Chunk: 64, Heartbeat: heartbeat, Timeout: timeout})
	if err != nil {
		h.Close()
		t.Fatal(err)
	}
	return c, h
}

// TestHeartbeatKeepsIdleSessionAlive: a session idle far longer than
// the host's liveness window stays up, because the client pings through
// the silence and the host's pongs refresh both deadlines.
func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	src := &fakeSource{blob: blob(10), verdict: true}
	c, h := dialPair(t, src, 200*time.Millisecond, 50*time.Millisecond, time.Second)
	defer h.Close()
	defer c.Close()
	time.Sleep(700 * time.Millisecond) // 3.5 host windows of application silence
	v, err := c.Verdict(context.Background(), "f1")
	if err != nil || !v {
		t.Fatalf("session died through heartbeated idle: v=%v err=%v", v, err)
	}
}

// TestClientTimeoutIsTyped: with the heartbeat disabled and a silent
// host, the client's read deadline fires within one timeout and every
// call fails with the typed timeout error — bounded dead-peer
// detection instead of an unbounded hang.
func TestClientTimeoutIsTyped(t *testing.T) {
	src := &fakeSource{blob: blob(10), verdict: true}
	// Host deadline disabled so it outlives the client and stays silent.
	c, h := dialPair(t, src, -1, -1, 150*time.Millisecond)
	defer h.Close()
	defer c.Close()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("client read deadline never fired on a silent session")
	}
	_, err := c.Verdict(context.Background(), "f1")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected a typed timeout, got %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Op != "read" {
		t.Fatalf("expected a read TimeoutError, got %#v", err)
	}
}

// TestHostDropsUnheardPeer: a client that never heartbeats is dropped
// by the host within its liveness window — the host does not hold dead
// sessions forever.
func TestHostDropsUnheardPeer(t *testing.T) {
	src := &fakeSource{blob: blob(10), verdict: true}
	c, h := dialPair(t, src, 150*time.Millisecond, -1, -1)
	defer h.Close()
	defer c.Close()
	select {
	case <-c.done: // host closed the socket; the client's read loop saw EOF
	case <-time.After(5 * time.Second):
		t.Fatal("host kept an unheard session past its liveness window")
	}
	if _, err := c.Verdict(context.Background(), "f1"); err == nil {
		t.Fatal("verdict on a host-dropped session should fail")
	}
}

// TestResumeConformance drives the resume handshake over a pipe and
// over TCP: a Resubscribe inside the log window is a suffix resume
// (no snapshot, Resumed true, first edit after+1), and one before the
// window falls back to a fresh full cut.
func TestResumeConformance(t *testing.T) {
	snapshot := blob(300)
	edits := []EditFrame{
		{Version: 8, Op: 1, Addr: []uint64{1 << 32}, Doc: []byte("<a/>\n")},
		{Version: 9, Op: 3, Addr: []uint64{1 << 32, 2 << 32}},
		{Version: 10, Op: 2, Addr: []uint64{7}, Doc: []byte("<b>\n  <c/>\n</b>\n")},
	}
	run := func(t *testing.T, s Session) {
		rs, ok := s.(LiveSession)
		if !ok {
			t.Fatalf("%T does not implement LiveSession", s)
		}
		src := currentLiveSource
		for _, e := range edits {
			src.publish(e)
		}
		// Inside the log window: suffix resume after version 8.
		feed, err := rs.Resubscribe(context.Background(), "f1", 8)
		if err != nil {
			t.Fatal(err)
		}
		if !feed.Resumed() {
			t.Fatal("resume inside the log window should be a suffix resume")
		}
		if feed.Base() != 8 || feed.SnapshotSize() != 0 {
			t.Fatalf("resumed cut: base %d size %d, want 8 0", feed.Base(), feed.SnapshotSize())
		}
		if _, err := feed.NextChunk(); err != io.EOF {
			t.Fatalf("resumed snapshot phase should be empty, got %v", err)
		}
		for _, want := range edits[1:] {
			e, err := feed.NextEdit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if e.Version != want.Version || e.Op != want.Op || !bytes.Equal(e.Doc, want.Doc) {
				t.Fatalf("resumed edit: got %+v want %+v", e, want)
			}
		}
		if err := feed.Close(); err != nil {
			t.Fatal(err)
		}
		// Before the log window: fresh full cut.
		feed, err = rs.Resubscribe(context.Background(), "f1", 3)
		if err != nil {
			t.Fatal(err)
		}
		if feed.Resumed() {
			t.Fatal("resume before the log window must fall back to a full cut")
		}
		if feed.Base() != 7 || feed.SnapshotSize() != len(snapshot) {
			t.Fatalf("fallback cut: base %d size %d, want 7 %d", feed.Base(), feed.SnapshotSize(), len(snapshot))
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
			got.Write(chunk)
		}
		if !bytes.Equal(got.Bytes(), snapshot) {
			t.Fatalf("fallback snapshot corrupted: %d bytes vs %d", got.Len(), len(snapshot))
		}
		if e, err := feed.NextEdit(context.Background()); err != nil || e.Version != 8 {
			t.Fatalf("fallback first edit: %+v %v", e, err)
		}
		if err := feed.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("inproc", func(t *testing.T) {
		currentLiveSource = newFakeLive(snapshot, 7)
		eachPipe(t, map[string]Source{"f1": currentLiveSource}, 64, run)
	})
	t.Run("tcp", func(t *testing.T) {
		currentLiveSource = newFakeLive(snapshot, 7)
		eachTCP(t, map[string]Source{"f1": currentLiveSource}, 64, run)
	})
}
