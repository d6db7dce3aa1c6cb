package flight

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// The capture file format: a 6-byte magic, then length-prefixed
// records. Each record is
//
//	uint32 big-endian n | dir(1) | sess(8) | wall_ns(8) | mono_ns(8) | orig(4) | wire bytes
//
// where n counts everything after the length prefix, so the wire bytes
// are n−29. orig is the frame's full on-wire length: a record whose
// wire bytes are shorter was truncated by a ring's per-frame cap (a
// live capture file always stores frames whole). Like the frame codec
// this format rides on, the reader validates lengths before allocating
// and errors — never panics — on truncated or garbage input.
const (
	captureMagic     = "DXFR1\n"
	recordFixed      = 1 + 8 + 8 + 8 + 4 // dir + sess + wall + mono + orig
	maxRecordPayload = 64 << 20          // sanity bound; real frames stay far below
)

// Record is one capture-file entry: a recorded Frame.
type Record = Frame

// writeCaptureHeader begins a capture stream.
func writeCaptureHeader(w io.Writer) error {
	_, err := io.WriteString(w, captureMagic)
	return err
}

// writeRecordParts appends one record whose wire bytes arrive in two
// slices (the codec's header+payload split), avoiding a join copy.
func writeRecordParts(w io.Writer, r Record, head, tail []byte) error {
	var hdr [4 + recordFixed]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(recordFixed+len(head)+len(tail)))
	hdr[4] = byte(r.Dir)
	binary.BigEndian.PutUint64(hdr[5:13], r.Sess)
	binary.BigEndian.PutUint64(hdr[13:21], uint64(r.WallNs))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(r.MonoNs))
	binary.BigEndian.PutUint32(hdr[29:33], uint32(r.Orig))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	if len(tail) > 0 {
		if _, err := w.Write(tail); err != nil {
			return err
		}
	}
	return nil
}

// WriteRecord appends one record to a capture stream.
func WriteRecord(w io.Writer, r Record) error {
	return writeRecordParts(w, r, r.Wire, nil)
}

// CaptureReader decodes a capture stream record by record.
type CaptureReader struct {
	r *bufio.Reader
}

// NewCaptureReader checks the capture magic and returns a reader.
func NewCaptureReader(r io.Reader) (*CaptureReader, error) {
	br := bufio.NewReaderSize(r, 32<<10)
	var magic [len(captureMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("flight: truncated capture header: %w", unexpectedEOF(err))
	}
	if string(magic[:]) != captureMagic {
		return nil, fmt.Errorf("flight: not a capture file (bad magic %q)", magic[:])
	}
	return &CaptureReader{r: br}, nil
}

// Next decodes the next record; io.EOF marks a clean end between
// records, io.ErrUnexpectedEOF a truncated one.
func (cr *CaptureReader) Next() (Record, error) {
	var hdr [4 + recordFixed]byte
	if _, err := io.ReadFull(cr.r, hdr[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("flight: truncated record length: %w", err)
		}
		return Record{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < recordFixed {
		return Record{}, fmt.Errorf("flight: %d-byte record is too short (need %d fixed bytes)", n, recordFixed)
	}
	if n-recordFixed > maxRecordPayload {
		return Record{}, fmt.Errorf("flight: %d-byte record exceeds the %d-byte limit", n, maxRecordPayload)
	}
	if _, err := io.ReadFull(cr.r, hdr[4:]); err != nil {
		return Record{}, fmt.Errorf("flight: truncated record: %w", unexpectedEOF(err))
	}
	if hdr[4] > uint8(In) {
		return Record{}, fmt.Errorf("flight: invalid record direction %d", hdr[4])
	}
	r := Record{
		Dir:    Dir(hdr[4]),
		Sess:   binary.BigEndian.Uint64(hdr[5:13]),
		WallNs: int64(binary.BigEndian.Uint64(hdr[13:21])),
		MonoNs: int64(binary.BigEndian.Uint64(hdr[21:29])),
		Orig:   int(binary.BigEndian.Uint32(hdr[29:33])),
	}
	wire := make([]byte, n-recordFixed)
	if _, err := io.ReadFull(cr.r, wire); err != nil {
		return Record{}, fmt.Errorf("flight: truncated record payload: %w", unexpectedEOF(err))
	}
	if r.Orig < len(wire) {
		return Record{}, fmt.Errorf("flight: record claims %d original bytes but carries %d", r.Orig, len(wire))
	}
	r.Wire = wire
	return r, nil
}

// ReadCapture decodes a whole capture stream.
func ReadCapture(r io.Reader) ([]Record, error) {
	cr, err := NewCaptureReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := cr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// ReadCaptureFile decodes a capture file from disk.
func ReadCaptureFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCapture(f)
}

// unexpectedEOF maps a clean EOF inside a record to ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
