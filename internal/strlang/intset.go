package strlang

import (
	"iter"
	"math/bits"
)

// Bits is a set of non-negative integers (automaton states) backed by a
// []uint64 bitset. State sets are the innermost currency of every subset
// construction in the design pipeline, so the representation is optimized
// for word-wise Union/Intersects/SubsetOf and for a compact, collision-free
// map key (Key). Use it through the IntSet alias.
type Bits struct {
	words []uint64
	n     int // cardinality, maintained incrementally
}

// IntSet is a finite set of non-negative integers. It has pointer
// semantics, like the map type it replaces: copies share the same storage
// unless made with Copy.
type IntSet = *Bits

// NewIntSet returns a set containing the given elements.
func NewIntSet(elems ...int) IntSet {
	s := &Bits{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func (s *Bits) grow(word int) {
	if word >= len(s.words) {
		s.words = append(s.words, make([]uint64, word+1-len(s.words))...)
	}
}

// Add inserts e into s.
func (s *Bits) Add(e int) {
	w, b := e>>6, uint(e&63)
	s.grow(w)
	if s.words[w]&(1<<b) == 0 {
		s.words[w] |= 1 << b
		s.n++
	}
}

// Remove deletes e from s.
func (s *Bits) Remove(e int) {
	w, b := e>>6, uint(e&63)
	if w < len(s.words) && s.words[w]&(1<<b) != 0 {
		s.words[w] &^= 1 << b
		s.n--
	}
}

// Has reports whether e is in s.
func (s *Bits) Has(e int) bool {
	w := e >> 6
	return w < len(s.words) && s.words[w]&(1<<uint(e&63)) != 0
}

// Len returns the cardinality of s.
func (s *Bits) Len() int { return s.n }

// Copy returns an independent copy of s.
func (s *Bits) Copy() IntSet {
	t := &Bits{n: s.n}
	t.words = append([]uint64(nil), s.words...)
	return t
}

// Clear removes every element, retaining the allocated capacity so the
// set can be refilled without reallocating. Scratch-arena code (the
// streaming validator's subset tracker) depends on this being
// allocation-free.
func (s *Bits) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.n = 0
}

// SetTo makes s an exact copy of t, reusing s's storage when it is large
// enough. Allocation-free once s has grown to t's word count.
func (s *Bits) SetTo(t IntSet) {
	s.words = append(s.words[:0], t.words...)
	s.n = t.n
}

// AddAll inserts every element of t into s (word-wise union). The
// cardinality is maintained by per-word deltas, so the cost is bounded by
// |t|'s words, not the receiver's.
func (s *Bits) AddAll(t IntSet) {
	if len(t.words) > len(s.words) {
		s.grow(len(t.words) - 1)
	}
	for i, w := range t.words {
		old := s.words[i]
		merged := old | w
		if merged != old {
			s.n += bits.OnesCount64(merged) - bits.OnesCount64(old)
			s.words[i] = merged
		}
	}
}

// All returns an iterator over the elements of s in increasing order.
func (s *Bits) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for i, w := range s.words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				if !yield(i<<6 | b) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Sorted returns the elements of s in increasing order.
func (s *Bits) Sorted() []int {
	out := make([]int, 0, s.n)
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i<<6|b)
			w &= w - 1
		}
	}
	return out
}

// Equal reports whether s and t contain the same elements.
func (s *Bits) Equal(t IntSet) bool {
	if s.n != t.n {
		return false
	}
	a, b := s.words, t.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share an element.
func (s *Bits) Intersects(t IntSet) bool {
	m := min(len(s.words), len(t.words))
	for i := 0; i < m; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Intersect returns s ∩ t.
func (s *Bits) Intersect(t IntSet) IntSet {
	m := min(len(s.words), len(t.words))
	out := &Bits{words: make([]uint64, m)}
	for i := 0; i < m; i++ {
		w := s.words[i] & t.words[i]
		out.words[i] = w
		out.n += bits.OnesCount64(w)
	}
	return out
}

// SubsetOf reports whether every element of s is in t.
func (s *Bits) SubsetOf(t IntSet) bool {
	for i, w := range s.words {
		if i >= len(t.words) {
			if w != 0 {
				return false
			}
			continue
		}
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for s, usable as a map key in subset
// constructions. Keys are collision-free: two sets share a key iff they are
// equal. The encoding is the raw little-endian bitset words with trailing
// zero words trimmed, so building it is a single allocation with no
// per-element formatting.
func (s *Bits) Key() string {
	nw := len(s.words)
	for nw > 0 && s.words[nw-1] == 0 {
		nw--
	}
	b := make([]byte, nw*8)
	for i := 0; i < nw; i++ {
		w := s.words[i]
		o := i * 8
		b[o] = byte(w)
		b[o+1] = byte(w >> 8)
		b[o+2] = byte(w >> 16)
		b[o+3] = byte(w >> 24)
		b[o+4] = byte(w >> 32)
		b[o+5] = byte(w >> 40)
		b[o+6] = byte(w >> 48)
		b[o+7] = byte(w >> 56)
	}
	return string(b)
}
