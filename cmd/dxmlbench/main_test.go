package main

import "testing"

// TestExperimentsRun runs every experiment end to end, as -exp all does
// (about 0.3 s).
func TestExperimentsRun(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) { e.run() })
	}
}
