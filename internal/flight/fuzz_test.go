package flight

import (
	"bytes"
	"testing"

	"dxml/internal/transport"
)

// FuzzCaptureRecords is the capture-decoder robustness gate: whatever
// bytes claim to be a capture file, the reader returns records or an
// error — it never panics, never over-allocates past the record bound,
// and round-trips whatever the recorder itself wrote.
func FuzzCaptureRecords(f *testing.F) {
	// Seed with a real capture so the fuzzer starts from valid shapes.
	var buf bytes.Buffer
	r := NewRecorder(Options{RingFrames: 4})
	if err := r.CaptureTo(&buf); err != nil {
		f.Fatal(err)
	}
	tap(r, transport.Out, 1, wire(8, []byte("seed-payload")), nil)
	tap(r, transport.In, 2, wire(9, []byte{0, 0, 0, 1}), nil)
	if err := r.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                       // truncated mid-record
	f.Add([]byte(captureMagic))                                       // header only
	f.Add([]byte("DXFR2\nnot the magic at all"))                      // wrong version
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0xff)) // huge trailing length

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := readCaptureAll(b)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same records.
		var out bytes.Buffer
		if err := writeCaptureHeader(&out); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := WriteRecord(&out, rec); err != nil {
				t.Fatalf("re-encode of decoded record failed: %v", err)
			}
		}
		again, err := readCaptureAll(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip lost records: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if !bytes.Equal(again[i].Wire, recs[i].Wire) || again[i].Sess != recs[i].Sess ||
				again[i].Dir != recs[i].Dir || again[i].Orig != recs[i].Orig {
				t.Fatalf("record %d mutated in round trip", i)
			}
		}
	})
}
