package chaos

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"dxml/internal/transport"
)

// fakeSrc is a minimal transport.Source for wrapping tests.
type fakeSrc struct{ blob []byte }

func (s *fakeSrc) Verdict(ctx context.Context) bool  { return true }
func (s *fakeSrc) Serialize(w io.Writer) (err error) { _, err = w.Write(s.blob); return }

func inproc() *transport.InProc {
	return &transport.InProc{Sources: map[string]transport.Source{"f1": &fakeSrc{blob: make([]byte, 64)}}, Chunk: 16}
}

// TestScriptConsumesOnlyMatchingKinds: a scripted fault waits for an
// opportunity that can express it — a FaultDuplicate script entry must
// pass Verdict calls (which can only drop or delay) untouched, then
// fire at the first edit delivery. Verified here at the draw level.
func TestScriptConsumesOnlyMatchingKinds(t *testing.T) {
	s := Script(FaultDuplicate, FaultDrop)
	// Opportunities that cannot express a duplicate: script must not advance.
	for i := 0; i < 3; i++ {
		if f := s.draw(FaultDrop, FaultDelay); f != FaultNone {
			t.Fatalf("draw %d consumed %v at a non-matching opportunity", i, f)
		}
	}
	if f := s.draw(FaultDrop, FaultDuplicate); f != FaultDuplicate {
		t.Fatalf("matching opportunity drew %v, want duplicate", f)
	}
	if f := s.draw(FaultDrop, FaultDelay); f != FaultDrop {
		t.Fatalf("second entry drew %v, want drop", f)
	}
	// Script exhausted: everything passes.
	if f := s.draw(FaultDrop, FaultDelay, FaultDuplicate); f != FaultNone {
		t.Fatalf("exhausted script drew %v", f)
	}
}

// TestDisarmedScheduleDrawsNothing: Arm(false) passes deliveries
// through without consuming script entries, and re-arming resumes
// exactly where the script stood.
func TestDisarmedScheduleDrawsNothing(t *testing.T) {
	s := Script(FaultDrop).Arm(false)
	for i := 0; i < 5; i++ {
		if f := s.draw(FaultDrop); f != FaultNone {
			t.Fatalf("disarmed schedule drew %v", f)
		}
	}
	s.Arm(true)
	if f := s.draw(FaultDrop); f != FaultDrop {
		t.Fatalf("re-armed schedule drew %v, want drop", f)
	}
}

// TestSeededBudgetBounds: a seeded schedule injects at most maxFaults,
// and identical seeds replay the identical fault sequence.
func TestSeededBudgetBounds(t *testing.T) {
	run := func(seed int64) []Fault {
		s := Seeded(seed, 0.5, 3)
		var got []Fault
		for i := 0; i < 200; i++ {
			if f := s.draw(FaultDrop, FaultDelay, FaultStallAck); f != FaultNone {
				got = append(got, f)
			}
		}
		return got
	}
	a, b := run(42), run(42)
	if len(a) != 3 {
		t.Fatalf("budget of 3 injected %d faults", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fault %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDropIsSticky: an injected drop fails the faulted call and every
// later call on the session with ErrInjected — one fault, one clean
// persistent failure mode, no half-alive sessions.
func TestDropIsSticky(t *testing.T) {
	sess := Wrap(inproc(), Script(FaultDrop).SetDelay(0))
	if _, err := sess.Verdict(context.Background(), "f1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted drop surfaced %v", err)
	}
	if _, err := sess.Verdict(context.Background(), "f1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-drop call surfaced %v, want sticky ErrInjected", err)
	}
	if _, err := sess.Open(context.Background(), "f1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-drop open surfaced %v, want sticky ErrInjected", err)
	}
}

// TestFaultFreePassThrough: an exhausted or never-firing schedule is
// transparent — the wrapped session behaves exactly like the bare one.
func TestFaultFreePassThrough(t *testing.T) {
	sess := Wrap(inproc(), Script())
	v, err := sess.Verdict(context.Background(), "f1")
	if err != nil || !v {
		t.Fatalf("pass-through verdict: %v %v", v, err)
	}
	frag, err := sess.Open(context.Background(), "f1")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		chunk, err := frag.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(chunk)
	}
	if total != 64 {
		t.Fatalf("pass-through transfer delivered %d bytes, want 64", total)
	}
}

// TestDelayDelivers: a delay fault slows a call down but the data
// arrives intact.
func TestDelayDelivers(t *testing.T) {
	sess := Wrap(inproc(), Script(FaultDelay).SetDelay(30*time.Millisecond))
	start := time.Now()
	v, err := sess.Verdict(context.Background(), "f1")
	if err != nil || !v {
		t.Fatalf("delayed verdict: %v %v", v, err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay fault slept only %v", d)
	}
}
