package transport

import "io"

// serializer is what both kinds of sender (Source and LiveFeedSrc)
// have in common: a document written on demand.
type serializer interface {
	Serialize(w io.Writer) error
}

// capture is the writer a source serializes into. Sources promise that
// bytes handed to Write never change afterwards, so the common case —
// one Write of bytes the source built once per document version — is
// kept by reference, with no copy; a serialization written in several
// pieces is joined into one buffer. Either way the transfer then ships
// slices of one byte slice, and the size it announces is that slice's
// length: the announcement and the shipped bytes come from one call.
type capture []byte

func (c *capture) Write(p []byte) (int, error) {
	if *c == nil {
		// Capacity clipped to the length, so that a later Write's
		// append copies instead of writing into the source's array.
		*c = p[:len(p):len(p)]
	} else {
		*c = append(*c, p...)
	}
	return len(p), nil
}

// serialized runs src's serialization into a capture and returns the
// bytes.
func serialized(src serializer) ([]byte, error) {
	var c capture
	err := src.Serialize(&c)
	return c, err
}

// nextChunk is the chunk of doc starting at off: budget bytes, or the
// rest when fewer remain. Chunk boundaries therefore depend only on the
// budget — never on the transport, the credit window, or how the source
// sliced its writes — which is what makes frame counts transport- and
// window-invariant.
func nextChunk(doc []byte, off, budget int) []byte {
	return doc[off : off+min(budget, len(doc)-off)]
}

// chunkBatch is how many chunk frames one write carries from off: the
// credit n, at most maxBatch, and no more than doc has left.
func chunkBatch(doc []byte, off, budget, n int) int {
	left := len(doc) - off
	chunks := left / budget
	if left%budget != 0 {
		chunks++
	}
	return min(n, maxBatch, chunks)
}
