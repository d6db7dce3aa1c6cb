package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dxml/internal/obs"
)

// endpoint is one end of a framed session: the kernel peer's Conn and
// the host's session both embed it. It owns the connection's frame
// writer and reader and the liveness window, so the locked write with
// its deadline, the typed write timeout, the encode accounting, the
// read deadline and the ping echo exist once for both ends.
type endpoint struct {
	c         net.Conn
	wmu       sync.Mutex // serializes write calls
	fw        frameWriter
	fr        *frameReader
	timeout   time.Duration  // liveness window (0: no deadlines)
	lastWrite atomic.Int64   // UnixNano of the most recent write call
	obs       *obs.Collector // telemetry sink (nil: no-op)
	trace     uint64         // session trace ID, shared by both ends
}

// init binds the endpoint to its connection.
func (e *endpoint) init(c net.Conn, timeout time.Duration, o *obs.Collector) {
	e.c, e.fw, e.fr, e.timeout, e.obs = c, frameWriter{w: c}, newFrameReader(c), timeout, o
	e.fr.obs = o
}

// observeAs hands every frame both halves move to ob (nil: none),
// tagged with the session's trace ID.
func (e *endpoint) observeAs(ob Observer, trace uint64) {
	e.trace = trace
	e.fw.ob, e.fw.sess = ob, trace
	e.fr.ob, e.fr.sess = ob, trace
}

func (e *endpoint) send(f frame) error { return e.sendAs(f, Control, "") }

// sendAs writes one frame; kind and fn label it for the observer
// (frameWriter.writeAs).
func (e *endpoint) sendAs(f frame, kind Kind, fn string) error {
	return e.write(1, func() error { return e.fw.writeAs(f, kind, fn) })
}

// write runs one write call of the given number of frames under the
// write lock, with the liveness deadline armed: a peer that stops
// draining its socket fails the write in bounded time instead of
// parking the writer forever. Each frame written counts once in
// CFramesEncoded; the call is one HFrameEncodeNs sample.
func (e *endpoint) write(frames int, do func() error) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	now := time.Now()
	if e.timeout > 0 {
		e.c.SetWriteDeadline(now.Add(e.timeout))
	}
	e.lastWrite.Store(now.UnixNano())
	start := e.obs.Nanos()
	if err := do(); err != nil {
		if isTimeout(err) {
			return &TimeoutError{Op: "write", After: e.timeout}
		}
		return err
	}
	e.obs.Observe(obs.HFrameEncodeNs, e.obs.Nanos()-start)
	e.obs.Add(obs.CFramesEncoded, int64(frames))
	return nil
}

// armReadDeadline extends the liveness window by one timeout: the next
// frame (any frame — a pong counts) must arrive within it.
func (e *endpoint) armReadDeadline() {
	if e.timeout > 0 {
		e.c.SetReadDeadline(time.Now().Add(e.timeout))
	}
}

// read waits for the next frame within the liveness window; a missed
// deadline is a TimeoutError.
func (e *endpoint) read() (frame, error) {
	e.armReadDeadline()
	f, err := e.fr.read()
	if err != nil && isTimeout(err) {
		err = &TimeoutError{Op: "read", After: e.timeout}
	}
	return f, err
}

// liveness handles the frames either end answers before dispatch: a
// ping is echoed as a pong with its token, and a pong needs nothing (its
// arrival refreshed the read deadline). It reports whether f was one,
// and the echo's write error.
func (e *endpoint) liveness(f frame) (bool, error) {
	switch f.typ {
	case framePing:
		return true, e.send(frame{typ: framePong, id: f.id})
	case framePong:
		return true, nil
	}
	return false, nil
}
