package main

import (
	"fmt"
	"os"
	"path/filepath"

	"dxml"
)

// captureFileName is the full binary capture the -capture flag writes
// under its directory; postmortem bundles land beside it.
const captureFileName = "capture.dxfr"

// captureRig wires the -capture flag into a running command: a flight
// recorder whose ring backs postmortem bundles, a full binary capture
// file under the chosen directory, and a dumper that writes one bundle
// per typed wire failure. It is the command's transport observer; attach
// it only when it exists. onError and close are safe on the nil rig.
type captureRig struct {
	*dxml.FlightRecorder
	dump *dxml.FlightDumper
	path string
}

// newCaptureRig builds the rig under dir (empty dir: no rig — the
// nil return is the no-op form). The collector c, when non-nil, has
// its trace ring and metrics snapshotted into every bundle.
func newCaptureRig(dir string, c *dxml.Obs) (*captureRig, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := dxml.NewFlightRecorder(dxml.FlightOptions{})
	path := filepath.Join(dir, captureFileName)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rec.CaptureTo(f); err != nil {
		f.Close()
		return nil, err
	}
	return &captureRig{
		FlightRecorder: rec,
		dump:           &dxml.FlightDumper{Dir: dir, Rec: rec, Obs: c},
		path:           path,
	}, nil
}

// Observe records every frame and writes a postmortem for every
// session failure.
func (r *captureRig) Observe(ev dxml.TransportEvent) {
	r.FlightRecorder.Observe(ev)
	if ev.Err != nil { // a session failure
		r.onError(ev.Err)
	}
}

// onError writes a postmortem bundle for a typed wire failure and says
// where it landed. Safe concurrently and on the nil rig, so it also
// plugs straight into the chaos listener's fault hook.
func (r *captureRig) onError(err error) {
	if r == nil {
		return
	}
	path, derr := r.dump.Dump(err)
	if derr != nil {
		fmt.Fprintln(os.Stderr, "dxml: postmortem:", derr)
		return
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "dxml: %s failure: wrote postmortem %s\n", dxml.ClassifyFailure(err), path)
	}
}

// close flushes and closes the capture file. Call it on every exit
// path that saw traffic; buffered records are lost otherwise.
func (r *captureRig) close() {
	if r == nil {
		return
	}
	if err := r.FlightRecorder.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dxml: capture:", err)
	}
}
