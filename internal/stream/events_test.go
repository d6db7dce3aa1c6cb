package stream

import (
	"testing"

	"dxml/internal/schema"
)

// TestRunnerEvents pins the telemetry event counter: one count per
// parse event, reset when the runner returns to the pool.
func TestRunnerEvents(t *testing.T) {
	d, err := schema.ParseDTD(schema.KindNRE, `
		root r
		r -> a*`)
	if err != nil {
		t.Fatal(err)
	}
	m := Compile(d.ToEDTD())
	r := m.NewRunner()
	defer r.Release()
	// <r><a/><a/></r> = 3 opens + 3 closes.
	for _, ev := range []string{"r", "a", "", "a", ""} {
		var err error
		if ev != "" {
			err = startElement(r, ev)
		} else {
			err = r.EndElement()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.EndElement(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := r.Events(); got != 6 {
		t.Fatalf("Events() = %d, want 6", got)
	}
	r.Release()
	r2 := m.NewRunner()
	if got := r2.Events(); got != 0 {
		t.Fatalf("pooled runner did not reset events: %d", got)
	}
	r2.Release()
}
