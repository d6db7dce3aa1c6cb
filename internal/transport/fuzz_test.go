package transport

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// FuzzFrameCodec drives the frame reader with arbitrary bytes: it must
// decode or error — truncated, oversized and garbage frames included —
// and every frame it does accept must survive an encode/decode round
// trip bit-for-bit. It must never panic and never allocate proportional
// to a hostile length prefix (the reader refuses lengths beyond
// maxFramePayload before reading them).
func FuzzFrameCodec(f *testing.F) {
	var seed bytes.Buffer
	fw := frameWriter{w: &seed}
	for _, fr := range sampleFrames() {
		fw.write(fr)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:7])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 2, byte(frameError), 'x'})
	f.Add([]byte{0, 0, 0, 1, 0xEE})
	// Hostile credit fields: a zero window grant, an all-ones grant, a
	// cumulative ack of 2^64-1, and v3-shaped (windowless) hello/ack
	// frames that are short on the v4 wire. The codec must decode or
	// error without allocating for the claimed values — credits are
	// counters, never buffer sizes.
	f.Add([]byte{0, 0, 0, 10, byte(frameHello), protocolVersion, 0, 0, 16, 0, 0, 0, 0, 0xAB})
	f.Add([]byte{0, 0, 0, 10, byte(frameHello), protocolVersion, 0, 0, 16, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 13, byte(frameAck), 0, 0, 0, 9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 6, byte(frameHello), protocolVersion, 0, 0, 16, 0})
	f.Add([]byte{0, 0, 0, 5, byte(frameAck), 0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 17, byte(frameBegin), 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 4, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			decoded, err := fr.read()
			if err != nil {
				return // any error is fine; panics and hangs are not
			}
			// Round trip: what the reader accepts, the writer must
			// reproduce and the reader must re-accept identically.
			var buf bytes.Buffer
			w := frameWriter{w: &buf}
			if werr := w.write(decoded); werr != nil {
				t.Fatalf("decoded frame %+v does not re-encode: %v", decoded, werr)
			}
			again, rerr := newFrameReader(&buf).read()
			if rerr != nil {
				t.Fatalf("re-encoded frame %+v does not decode: %v", decoded, rerr)
			}
			if !frameEqual(decoded, again) {
				t.Fatalf("round trip changed frame: %+v vs %+v", decoded, again)
			}
		}
	})
}

// FuzzChunker checks the chunking invariant the transports rely on: a
// serialization written in any split reassembles to the same bytes
// through the capture writer, every chunk except the last is exactly
// the budget, and the chunk sequence depends only on the budget — not
// on how the source sliced its writes, nor on how many frames each
// vectored write carries (the sender's credit, 1 to 4 here).
func FuzzChunker(f *testing.F) {
	f.Add([]byte("<eurostat>\n  <averages/>\n</eurostat>\n"), uint8(4), uint8(3))
	f.Add(bytes.Repeat([]byte("ab"), 300), uint8(16), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(5))
	f.Add([]byte("one write"), uint8(64), uint8(0))

	f.Fuzz(func(t *testing.T, doc []byte, budgetRaw, sliceRaw uint8) {
		budget := int(budgetRaw)%64 + 1
		credit := int(budgetRaw>>6) + 1
		// slice 0 writes the document in one piece, which the capture
		// keeps by reference; any other value splits it.
		slice := int(sliceRaw) % 17
		var c capture
		if slice == 0 {
			c.Write(doc)
		} else {
			for off := 0; off < len(doc); off += slice {
				c.Write(doc[off:min(off+slice, len(doc))])
			}
		}
		if !bytes.Equal(c, doc) {
			t.Fatalf("capture holds %d bytes, want %d", len(c), len(doc))
		}
		if slice == 0 && len(doc) > 0 && &c[0] != &doc[0] {
			t.Fatal("a single write was copied, not kept by reference")
		}
		// ship frames c's chunks as the host does, credit frames per
		// write, and decodes them back off the wire.
		ship := func(budget int) [][]byte {
			var wire bytes.Buffer
			fw := frameWriter{w: &wire}
			for off := 0; off < len(c); {
				var err error
				if off, err = fw.writeChunks(7, c, off, budget, chunkBatch(c, off, budget, credit)); err != nil {
					t.Fatal(err)
				}
			}
			var chunks [][]byte
			fr := newFrameReader(&wire)
			for {
				f, err := fr.read()
				if err == io.EOF {
					return chunks
				}
				if err != nil {
					t.Fatal(err)
				}
				if f.typ != frameChunk || f.id != 7 {
					t.Fatalf("frame type %d on stream %d, want chunks of stream 7", f.typ, f.id)
				}
				chunks = append(chunks, bytes.Clone(f.data))
			}
		}
		chunks := ship(budget)
		var got []byte
		for i, chunk := range chunks {
			if len(chunk) == 0 || len(chunk) > budget {
				t.Fatalf("chunk of %d bytes under budget %d", len(chunk), budget)
			}
			if i < len(chunks)-1 && len(chunk) != budget {
				t.Fatalf("non-final chunk %d has %d bytes, budget %d", i, len(chunk), budget)
			}
			got = append(got, chunk...)
		}
		if !bytes.Equal(got, doc) {
			t.Fatalf("reassembly mismatch: %d bytes in, %d out", len(doc), len(got))
		}
		if want := (len(doc) + budget - 1) / budget; len(chunks) != want {
			t.Fatalf("%d chunks, want %d", len(chunks), want)
		}
		// Unchunked: the whole document is one chunk.
		whole := ship(math.MaxInt)
		if want := min(len(doc), 1); len(whole) != want {
			t.Fatalf("unchunked: %d chunks, want %d", len(whole), want)
		}
		if len(whole) == 1 && !bytes.Equal(whole[0], doc) {
			t.Fatalf("unchunked chunk of %d bytes, want %d", len(whole[0]), len(doc))
		}
	})
}
