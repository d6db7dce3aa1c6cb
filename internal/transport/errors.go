package transport

import (
	"errors"
	"fmt"
	"time"
)

// ErrTimeout is the sentinel every liveness failure unwraps to: a peer
// missed its deadline — no frame (not even a heartbeat) arrived within
// the session's liveness window, or a frame write could not drain. Use
// errors.Is(err, ErrTimeout) to distinguish a dead peer from a protocol
// error or a clean close.
var ErrTimeout = errors.New("transport: peer deadline exceeded")

// TimeoutError is the concrete liveness failure: which operation timed
// out and after how long. It unwraps to ErrTimeout and implements the
// net.Error Timeout contract, so both errors.Is and the conventional
// interface probe detect it.
type TimeoutError struct {
	Op    string        // "read", "write", "hello"
	After time.Duration // the deadline that expired
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("transport: %s timed out after %v (peer presumed dead)", e.Op, e.After)
}

// Timeout reports true: a TimeoutError is always a deadline failure.
func (e *TimeoutError) Timeout() bool { return true }

// Unwrap lets errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// isTimeout reports whether err is a deadline failure from the net
// layer (net.Error with Timeout) or one of our own TimeoutErrors.
func isTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// ErrCodec is the sentinel every structural frame-decode failure
// unwraps to: a length prefix, type byte, or payload layout the codec
// refuses — garbage on the wire, as opposed to a truncated read (an io
// error) or a timeout. Use errors.Is(err, ErrCodec) to trigger
// wire-corruption handling (the flight recorder dumps a postmortem on
// it) without matching message strings.
var ErrCodec = errors.New("transport: malformed frame")

// codecError is a structural decode failure with its descriptive
// message; it unwraps to ErrCodec.
type codecError struct{ msg string }

func (e *codecError) Error() string { return e.msg }
func (e *codecError) Unwrap() error { return ErrCodec }

// codecErrf builds a codecError; messages match the codec's historical
// fmt.Errorf texts exactly.
func codecErrf(format string, args ...any) error {
	return &codecError{msg: fmt.Sprintf(format, args...)}
}

// ErrInvalidWindow rejects a nonsensical credit-window configuration —
// a negative window — at session-build time, typed, instead of letting
// it surface as a hang or a protocol error at runtime. (Zero means "use
// the default"; oversized windows are clamped, not refused.)
var ErrInvalidWindow = errors.New("transport: invalid credit window (must be positive, or 0 for the default)")

// ErrUnknownDesign is the sentinel a refused hello unwraps to when the
// host does not serve the design the client's digest names — a
// single-design host serving a different design, or a multi-tenant
// registry with no tenant registered under that digest. Use
// errors.Is(err, ErrUnknownDesign) to distinguish "wrong host / not
// registered" from a capacity refusal or a transport failure.
var ErrUnknownDesign = errors.New("transport: unknown design digest (this host does not serve that design)")

// ErrOverCapacity is the sentinel a refused hello unwraps to when the
// host recognizes the design but will not admit the session: a
// concurrent-session cap, a per-tenant cap, or a resident-memory budget
// is exhausted. The refusal is immediate — an over-budget hello is
// answered with a refuse frame, never parked — so callers can back off
// and retry instead of hanging.
var ErrOverCapacity = errors.New("transport: host over capacity")

// RefuseCode discriminates hello refusals on the wire; it is the typed
// half of the refuse frame (the reason string is the human half).
type RefuseCode uint8

const (
	// RefuseGeneric is a refusal with no machine-readable cause.
	RefuseGeneric RefuseCode = iota
	// RefuseUnknownDesign: no such design behind this endpoint.
	RefuseUnknownDesign
	// RefuseOverCapacity: admission control rejected the session.
	RefuseOverCapacity
)

// RefusedError is a hello or a stream refused by the host: the
// machine-readable code plus the host's reason. It unwraps to
// ErrUnknownDesign or ErrOverCapacity by code, so both errors.Is probes
// and the message work. Hosts return it from a Router or a Gate to
// refuse with a typed cause; Dial and Pipe return it when the host
// answers the hello with a refuse frame, and Conn.Open and Subscribe
// wrap it when a stream error frame carries a refuse code.
type RefusedError struct {
	Code   RefuseCode
	Reason string
}

func (e *RefusedError) Error() string {
	return "transport: session refused: " + e.Reason
}

// Unwrap maps the refusal code to its sentinel.
func (e *RefusedError) Unwrap() error {
	switch e.Code {
	case RefuseUnknownDesign:
		return ErrUnknownDesign
	case RefuseOverCapacity:
		return ErrOverCapacity
	}
	return nil
}
