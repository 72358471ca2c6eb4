package rel

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a subset of the universe {0, ..., N-1}, as a bitset.
// Sets classify events (reads, writes, fences...) and appear in the
// framework as restrictors: e.g. "po ∩ WR" is po.Restrict(W, R).
type Set struct {
	n    int
	bits []uint64
}

// NewSet returns the empty set over a universe of n elements.
func NewSet(n int) Set {
	if n < 0 {
		panic("rel: negative universe size")
	}
	w := (n + wordBits - 1) / wordBits
	if w == 0 {
		w = 1
	}
	return Set{n: n, bits: make([]uint64, w)}
}

// NewSets returns k empty sets over n elements carved from one
// allocation, the set counterpart of NewN.
func NewSets(n, k int) []Set {
	var bits []uint64
	return CarveSets(&bits, nil, n, k)
}

// CarveSets is NewSets over storage the caller keeps, the set
// counterpart of Carve: it returns k empty sets over n elements carved
// from *buf, with their headers in ss, and grows *buf or ss only when
// one is too small.
func CarveSets(buf *[]uint64, ss []Set, n, k int) []Set {
	if n < 0 {
		panic("rel: negative universe size")
	}
	w := Words(n)
	if cap(*buf) < w*k {
		*buf = make([]uint64, w*k)
	}
	bits := (*buf)[:w*k]
	clear(bits)
	if cap(ss) < k {
		ss = make([]Set, k)
	}
	ss = ss[:k]
	for i := range ss {
		ss[i] = Set{n: n, bits: bits[i*w : (i+1)*w : (i+1)*w]}
	}
	return ss
}

// FullSet returns the set of all n elements.
func FullSet(n int) Set {
	s := NewSet(n)
	for i := range s.bits {
		s.bits[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// SetOf returns the set containing exactly the given elements.
func SetOf(n int, elems ...int) Set {
	s := NewSet(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// N returns the size of the universe.
func (s Set) N() int { return s.n }

func (s Set) trim() {
	if s.n == 0 {
		for i := range s.bits {
			s.bits[i] = 0
		}
		return
	}
	rem := uint(s.n % wordBits)
	if rem != 0 {
		s.bits[len(s.bits)-1] &= (uint64(1) << rem) - 1
	}
}

func (s Set) checkElem(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("rel: element %d out of universe [0,%d)", i, s.n))
	}
}

// Add inserts element i.
func (s Set) Add(i int) {
	s.checkElem(i)
	s.bits[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	s.checkElem(i)
	return s.bits[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Clone returns a deep copy.
func (s Set) Clone() Set {
	c := Set{n: s.n, bits: make([]uint64, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}

func (s Set) sameUniverse(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("rel: set universe mismatch %d vs %d", s.n, t.n))
	}
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	s.sameUniverse(t)
	out := s.Clone()
	for i := range out.bits {
		out.bits[i] |= t.bits[i]
	}
	return out
}

// Inter returns s ∩ t.
func (s Set) Inter(t Set) Set {
	s.sameUniverse(t)
	out := s.Clone()
	for i := range out.bits {
		out.bits[i] &= t.bits[i]
	}
	return out
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	s.sameUniverse(t)
	out := s.Clone()
	for i := range out.bits {
		out.bits[i] &^= t.bits[i]
	}
	return out
}

// Complement returns the universe minus s.
func (s Set) Complement() Set {
	out := s.Clone()
	for i := range out.bits {
		out.bits[i] = ^out.bits[i]
	}
	out.trim()
	return out
}

// Card returns the number of elements.
func (s Set) Card() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t have the same elements.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != t.bits[i] {
			return false
		}
	}
	return true
}

// Elems returns the elements in ascending order.
func (s Set) Elems() []int {
	var out []int
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, w*wordBits+b)
		}
	}
	return out
}

// String renders the set for debugging.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte('}')
	return b.String()
}
