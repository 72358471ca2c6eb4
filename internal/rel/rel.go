// Package rel implements a small algebra of binary relations over a dense
// universe of n elements, represented as n×n bit matrices.
//
// This is the computational core of the axiomatic framework of "Herding cats"
// (Alglave, Maranget, Tautschnig, 2014): memory models are written as
// unions, intersections, sequences and closures of relations over events,
// and validity checks are acyclicity or irreflexivity tests. Because litmus
// executions are small (tens of events), a dense bit-matrix representation
// makes composition and transitive closure cheap — this is what lets the
// single-event axiomatic simulator outperform operational ones (Table IX).
package rel

import (
	"container/heap"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Rel is a binary relation over the universe {0, ..., N-1}.
// Row i holds the successors of element i as a bitset.
// The zero value is unusable; use New.
type Rel struct {
	n     int
	words int // words per row
	bits  []uint64
}

// New returns the empty relation over a universe of n elements.
func New(n int) Rel {
	if n < 0 {
		panic("rel: negative universe size")
	}
	w := (n + wordBits - 1) / wordBits
	if w == 0 {
		w = 1 // keep rows addressable even for n==0
	}
	return Rel{n: n, words: w, bits: make([]uint64, n*w)}
}

// NewN returns k empty relations over n elements carved from one
// allocation, for callers that size a whole register file at once.
func NewN(n, k int) []Rel {
	var bits []uint64
	return Carve(&bits, nil, n, k)
}

// Carve is NewN over storage the caller keeps: it returns k empty
// relations over n elements carved from *buf, with their headers in rs,
// and grows *buf or rs only when one is too small. The relations alias
// *buf, so the next Carve from it overwrites them; a file that outlives
// one universe size keeps its storage this way.
func Carve(buf *[]uint64, rs []Rel, n, k int) []Rel {
	if n < 0 {
		panic("rel: negative universe size")
	}
	w := Words(n)
	size := n * w
	if cap(*buf) < size*k {
		*buf = make([]uint64, size*k)
	}
	bits := (*buf)[:size*k]
	clear(bits)
	if cap(rs) < k {
		rs = make([]Rel, k)
	}
	rs = rs[:k]
	for i := range rs {
		rs[i] = Rel{n: n, words: w, bits: bits[i*size : (i+1)*size : (i+1)*size]}
	}
	return rs
}

// Words is the number of 64-bit words a set over n elements takes, and
// so does each row of a relation over n: Carve takes n*Words(n) words
// per relation from its buffer, CarveSets Words(n) per set.
func Words(n int) int { return max((n+wordBits-1)/wordBits, 1) }

// FromPairs builds a relation over n elements containing the given pairs.
func FromPairs(n int, pairs [][2]int) Rel {
	r := New(n)
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

// Identity returns the identity relation over n elements.
func Identity(n int) Rel {
	r := New(n)
	for i := 0; i < n; i++ {
		r.Add(i, i)
	}
	return r
}

// Full returns the complete relation over n elements.
func Full(n int) Rel {
	r := New(n)
	for i := 0; i < n*r.words; i++ {
		r.bits[i] = ^uint64(0)
	}
	r.trim()
	return r
}

// N returns the size of the universe.
func (r Rel) N() int { return r.n }

func (r Rel) row(i int) []uint64 { return r.bits[i*r.words : (i+1)*r.words] }

func (r Rel) check(i, j int) {
	if i < 0 || i >= r.n || j < 0 || j >= r.n {
		panic(fmt.Sprintf("rel: pair (%d,%d) out of universe [0,%d)", i, j, r.n))
	}
}

// Add inserts the pair (i, j).
func (r Rel) Add(i, j int) {
	r.check(i, j)
	r.row(i)[j/wordBits] |= 1 << (uint(j) % wordBits)
}

// Remove deletes the pair (i, j).
func (r Rel) Remove(i, j int) {
	r.check(i, j)
	r.row(i)[j/wordBits] &^= 1 << (uint(j) % wordBits)
}

// Has reports whether the pair (i, j) is in the relation.
func (r Rel) Has(i, j int) bool {
	r.check(i, j)
	return r.row(i)[j/wordBits]&(1<<(uint(j)%wordBits)) != 0
}

// trim clears bits beyond column n-1 (they can appear after Full or Complement).
func (r Rel) trim() {
	if r.n == 0 {
		for i := range r.bits {
			r.bits[i] = 0
		}
		return
	}
	rem := uint(r.n % wordBits)
	if rem == 0 {
		return
	}
	mask := (uint64(1) << rem) - 1
	for i := 0; i < r.n; i++ {
		r.row(i)[r.words-1] &= mask
	}
}

// Clone returns a deep copy of r.
func (r Rel) Clone() Rel {
	c := Rel{n: r.n, words: r.words, bits: make([]uint64, len(r.bits))}
	copy(c.bits, r.bits)
	return c
}

func (r Rel) sameUniverse(s Rel) {
	if r.n != s.n {
		panic(fmt.Sprintf("rel: universe mismatch %d vs %d", r.n, s.n))
	}
}

// --- In-place kernels ----------------------------------------------------
//
// The destructive counterparts of the functional operators below. They are
// what lets the hot candidate-checking loop run with zero steady-state
// allocations: an Arena hands out Rel buffers once and the kernels mutate
// them in place. Every kernel requires its operands to share r's universe.

// Clear removes every pair, leaving the empty relation.
func (r Rel) Clear() {
	for i := range r.bits {
		r.bits[i] = 0
	}
}

// CopyFrom overwrites r with the pairs of s.
func (r Rel) CopyFrom(s Rel) {
	r.sameUniverse(s)
	copy(r.bits, s.bits)
}

// UnionInto adds every pair of s to r (r ∪= s).
func (r Rel) UnionInto(s Rel) {
	r.sameUniverse(s)
	for i := range r.bits {
		r.bits[i] |= s.bits[i]
	}
}

// InterInto keeps only the pairs of r also in s (r ∩= s).
func (r Rel) InterInto(s Rel) {
	r.sameUniverse(s)
	for i := range r.bits {
		r.bits[i] &= s.bits[i]
	}
}

// DiffInto removes every pair of s from r (r \= s).
func (r Rel) DiffInto(s Rel) {
	r.sameUniverse(s)
	for i := range r.bits {
		r.bits[i] &^= s.bits[i]
	}
}

// SeqInto overwrites r with the composition a ; b. r must not alias a or b
// (their buffers would be read while being written); a and b may alias each
// other.
func (r Rel) SeqInto(a, b Rel) {
	r.sameUniverse(a)
	r.sameUniverse(b)
	if len(r.bits) > 0 && (&r.bits[0] == &a.bits[0] || &r.bits[0] == &b.bits[0]) {
		panic("rel: SeqInto destination aliases an operand")
	}
	if r.words == 1 {
		// One word per row (n ≤ 64, every litmus universe): row i of a ; b
		// is the OR of b's rows over the set bits of a's row i.
		for i, word := range a.bits {
			var acc uint64
			for ; word != 0; word &= word - 1 {
				acc |= b.bits[bits.TrailingZeros64(word)]
			}
			r.bits[i] = acc
		}
		return
	}
	r.Clear()
	for i := 0; i < r.n; i++ {
		src := a.row(i)
		dst := r.row(i)
		for w, word := range src {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &= word - 1
				mid := b.row(w*wordBits + bit)
				for k := range dst {
					dst[k] |= mid[k]
				}
			}
		}
	}
}

// InverseInto overwrites r with s⁻¹, i.e. {(j,i) | (i,j) ∈ s}. r must not
// alias s (the transposition reads s while writing r).
func (r Rel) InverseInto(s Rel) {
	r.sameUniverse(s)
	if len(r.bits) > 0 && &r.bits[0] == &s.bits[0] {
		panic("rel: InverseInto destination aliases the operand")
	}
	r.Clear()
	for i := 0; i < s.n; i++ {
		row := s.row(i)
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				r.Add(w*wordBits+b, i)
			}
		}
	}
}

// InvSeqInto overwrites r with a⁻¹ ; b: row j of r is the OR of b's rows
// over the sources i of the pairs (i, j) of a. It composes without
// transposing a first. r must not alias a or b.
func (r Rel) InvSeqInto(a, b Rel) {
	r.sameUniverse(a)
	r.sameUniverse(b)
	if len(r.bits) > 0 && (&r.bits[0] == &a.bits[0] || &r.bits[0] == &b.bits[0]) {
		panic("rel: InvSeqInto destination aliases an operand")
	}
	r.Clear()
	if r.words == 1 {
		for i, word := range a.bits {
			for ; word != 0; word &= word - 1 {
				r.bits[bits.TrailingZeros64(word)] |= b.bits[i]
			}
		}
		return
	}
	for i := 0; i < a.n; i++ {
		src := b.row(i)
		for w, word := range a.row(i) {
			for ; word != 0; word &= word - 1 {
				dst := r.row(w*wordBits + bits.TrailingZeros64(word))
				for k := range dst {
					dst[k] |= src[k]
				}
			}
		}
	}
}

// AddChain adds the strict total order of chain to r: the pair
// (chain[i], chain[j]) for every i < j. With one word per row it is one
// backward pass, each element's row taking the mask of the elements after
// it; wider universes add the pairs one by one. The elements must be
// distinct.
func (r Rel) AddChain(chain []int) {
	if r.words == 1 {
		var after uint64
		for i := len(chain) - 1; i >= 0; i-- {
			c := chain[i]
			r.check(c, c)
			r.bits[c] |= after
			after |= 1 << uint(c)
		}
		return
	}
	for i, a := range chain {
		for _, b := range chain[i+1:] {
			r.Add(a, b)
		}
	}
}

// PlusInPlace replaces r with its transitive closure r⁺ (Floyd–Warshall).
func (r Rel) PlusInPlace() {
	if r.words == 1 {
		rows := r.bits
		for k, krow := range rows {
			if krow == 0 {
				continue // an empty pivot row adds nothing
			}
			bit := uint64(1) << uint(k)
			for i, irow := range rows {
				if irow&bit != 0 {
					rows[i] = irow | krow
				}
			}
		}
		return
	}
	for k := 0; k < r.n; k++ {
		krow := r.row(k)
		bit := uint64(1) << (uint(k) % wordBits)
		w := k / wordBits
		for i := 0; i < r.n; i++ {
			irow := r.row(i)
			if irow[w]&bit != 0 {
				for x := range irow {
					irow[x] |= krow[x]
				}
			}
		}
	}
}

// ComplementInPlace replaces r with its complement (including diagonal pairs).
func (r Rel) ComplementInPlace() {
	for i := range r.bits {
		r.bits[i] = ^r.bits[i]
	}
	r.trim()
}

// UnionIdentity adds the full diagonal (i,i) for every universe element,
// turning r⁺ into r* and r into r? in place.
func (r Rel) UnionIdentity() {
	if r.words == 1 {
		for i := range r.bits {
			r.bits[i] |= 1 << uint(i)
		}
		return
	}
	for i := 0; i < r.n; i++ {
		r.row(i)[i/wordBits] |= 1 << (uint(i) % wordBits)
	}
}

// RestrictInPlace keeps only pairs with source in src and target in dst,
// the destructive form of Restrict.
func (r Rel) RestrictInPlace(src, dst Set) {
	r.checkSet(src)
	r.checkSet(dst)
	if r.words == 1 {
		s, d := src.bits[0], dst.bits[0]
		for i := range r.bits {
			if s&(1<<uint(i)) == 0 {
				r.bits[i] = 0
			} else {
				r.bits[i] &= d
			}
		}
		return
	}
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		if !src.Has(i) {
			for w := range row {
				row[w] = 0
			}
			continue
		}
		for w := range row {
			row[w] &= dst.bits[w]
		}
	}
}

// UnionCross adds every pair of src × dst to r (r ∪= src × dst).
func (r Rel) UnionCross(src, dst Set) {
	r.checkSet(src)
	r.checkSet(dst)
	for i := 0; i < r.n; i++ {
		if src.Has(i) {
			row := r.row(i)
			for w := range row {
				row[w] |= dst.bits[w]
			}
		}
	}
}

// ForEachPair calls f for every pair in lexicographic order without
// materialising the pair list.
func (r Rel) ForEachPair(f func(i, j int)) {
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				f(i, w*wordBits+b)
			}
		}
	}
}

// The pure operators below return a fresh relation and leave their
// operands untouched; each is a copy (or an empty relation) plus the
// matching in-place kernel, so every algorithm is written once.

// Union returns r ∪ s.
func (r Rel) Union(s Rel) Rel {
	out := r.Clone()
	out.UnionInto(s)
	return out
}

// Inter returns r ∩ s.
func (r Rel) Inter(s Rel) Rel {
	out := r.Clone()
	out.InterInto(s)
	return out
}

// Diff returns r \ s.
func (r Rel) Diff(s Rel) Rel {
	out := r.Clone()
	out.DiffInto(s)
	return out
}

// Complement returns the complement of r (including diagonal pairs).
func (r Rel) Complement() Rel {
	out := r.Clone()
	out.ComplementInPlace()
	return out
}

// Inverse returns r⁻¹, i.e. {(j,i) | (i,j) ∈ r}.
func (r Rel) Inverse() Rel {
	out := New(r.n)
	out.InverseInto(r)
	return out
}

// Seq returns the relational composition r ; s,
// i.e. {(i,k) | ∃j. (i,j) ∈ r ∧ (j,k) ∈ s}.
func (r Rel) Seq(s Rel) Rel {
	out := New(r.n)
	out.SeqInto(r, s)
	return out
}

// Plus returns the transitive closure r⁺.
func (r Rel) Plus() Rel {
	out := r.Clone()
	out.PlusInPlace()
	return out
}

// Star returns the reflexive-transitive closure r*.
func (r Rel) Star() Rel {
	out := r.Plus()
	out.UnionIdentity()
	return out
}

// Opt returns r ∪ id, the reflexive closure ("r?" in cat).
func (r Rel) Opt() Rel {
	out := r.Clone()
	out.UnionIdentity()
	return out
}

// Irreflexive reports whether no element is related to itself.
func (r Rel) Irreflexive() bool {
	if r.words == 1 {
		for i, row := range r.bits {
			if row&(1<<uint(i)) != 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < r.n; i++ {
		if r.row(i)[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 {
			return false
		}
	}
	return true
}

// dfsFrame is one level of the iterative three-colour DFS: the node being
// expanded plus a cursor over its successor bitset.
type dfsFrame struct {
	node int
	word int
	bits uint64
}

// DFSScratch holds the reusable traversal state of the cycle DFS, so hot
// callers (AcyclicScratch) can run acyclicity checks without allocating.
// The zero value is ready to use; one scratch serves one goroutine.
type DFSScratch struct {
	colour []byte
	stack  []dfsFrame
}

// cycleDFS is the iterative three-colour DFS shared by Acyclic,
// CycleWitness and AcyclicScratch above one word — a DFS cycle check is
// cheaper than computing the closure, and an explicit frame stack keeps
// mined-scale universes from overflowing the goroutine stack. It reports
// whether a cycle exists; with wantWitness set it also returns one cycle
// (the grey path from the revisited node to the top of the stack, each
// element related to the next and the last to the first).
func (r Rel) cycleDFS(sc *DFSScratch, wantWitness bool) (found bool, witness []int) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	if sc == nil {
		sc = &DFSScratch{}
	}
	if cap(sc.colour) < r.n {
		sc.colour = make([]byte, r.n)
	} else {
		sc.colour = sc.colour[:r.n]
		for i := range sc.colour {
			sc.colour[i] = white
		}
	}
	colour := sc.colour
	stack := sc.stack[:0]
	defer func() { sc.stack = stack }()
	for start := 0; start < r.n; start++ {
		if colour[start] != white {
			continue
		}
		colour[start] = grey
		stack = append(stack[:0], dfsFrame{start, 0, r.bits[start*r.words]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.bits == 0 {
				f.word++
				if f.word >= r.words {
					colour[f.node] = black
					stack = stack[:len(stack)-1]
					continue
				}
				f.bits = r.bits[f.node*r.words+f.word]
				continue
			}
			b := bits.TrailingZeros64(f.bits)
			f.bits &= f.bits - 1
			next := f.word*wordBits + b
			switch colour[next] {
			case grey:
				if wantWitness {
					at := 0
					for k := range stack {
						if stack[k].node == next {
							at = k
							break
						}
					}
					witness = make([]int, 0, len(stack)-at)
					for _, fr := range stack[at:] {
						witness = append(witness, fr.node)
					}
				}
				return true, witness
			case white:
				colour[next] = grey
				stack = append(stack, dfsFrame{next, 0, r.bits[next*r.words]})
			}
		}
	}
	return false, nil
}

// Acyclic reports whether r contains no cycle, i.e. r⁺ is irreflexive.
func (r Rel) Acyclic() bool {
	found, _ := r.cycleDFS(nil, false)
	return !found
}

// AcyclicScratch is Acyclic for hot callers: repeated checks allocate
// nothing. A universe of at most 64 elements, one word per row, takes the
// peeling kernel acyclicWord, which needs no scratch; a larger one runs
// the DFS over the given traversal scratch (a nil scratch allocates one).
// Acyclic and CycleWitness keep the DFS alone, so the cat interpreter, the
// compiled evaluator's oracle, never runs the kernel it is checking.
func (r Rel) AcyclicScratch(sc *DFSScratch) bool {
	if r.words == 1 {
		return r.acyclicWord()
	}
	found, _ := r.cycleDFS(sc, false)
	return !found
}

// acyclicWord decides acyclicity over a one-word universe by peeling: an
// element with no live successor, or no live predecessor, lies on no
// cycle, so it is dropped, and the passes repeat until one drops nothing.
// Whatever is left is empty iff r is acyclic: each element left has a
// successor left, and a walk along them inside a finite set closes a
// cycle. A pass drops elements as it finds them, from the lowest up, so
// a chain whose edges run down the universe peels in one pass; one whose
// edges run up loses its two ends per pass, one to each test. The
// predecessor mask is gathered from the rows of elements kept when seen,
// a superset of the live ones, so it drops no element that has a live
// predecessor.
func (r Rel) acyclicWord() bool {
	rows := r.bits[:r.n]
	live := uint64(1)<<uint(r.n) - 1 // all ones at n = 64
	for live != 0 {
		was := live
		var reached uint64
		for l := live; l != 0; l &= l - 1 {
			i := bits.TrailingZeros64(l)
			if succ := rows[i] & live; succ != 0 {
				reached |= succ
			} else {
				live &^= 1 << uint(i)
			}
		}
		if live &= reached; live == was {
			return false
		}
	}
	return true
}

// Reflexive reports whether r relates some element to itself
// (the cat "reflexive" check used for load-load-hazard filters;
// note this is "∃x.(x,x)", matching herd's usage, not ∀).
func (r Rel) Reflexive() bool {
	return !r.Irreflexive()
}

// IsEmpty reports whether the relation has no pairs.
func (r Rel) IsEmpty() bool {
	for _, w := range r.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Card returns the number of pairs in the relation.
func (r Rel) Card() int {
	c := 0
	for _, w := range r.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether r and s contain exactly the same pairs.
func (r Rel) Equal(s Rel) bool {
	if r.n != s.n {
		return false
	}
	for i := range r.bits {
		if r.bits[i] != s.bits[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every pair of r is in s.
func (r Rel) SubsetOf(s Rel) bool {
	r.sameUniverse(s)
	for i := range r.bits {
		if r.bits[i]&^s.bits[i] != 0 {
			return false
		}
	}
	return true
}

// Within2 reports whether aLo ⊆ a ⊆ aHi and bLo ⊆ b ⊆ bHi, the six
// relations over one universe: the four subset tests of a bounds guard,
// fused into one pass over the words.
func Within2(a, aLo, aHi, b, bLo, bHi Rel) bool {
	for _, s := range [...]Rel{aLo, aHi, b, bLo, bHi} {
		a.sameUniverse(s)
	}
	k := len(a.bits)
	av, al, ah := a.bits[:k], aLo.bits[:k], aHi.bits[:k]
	bv, bl, bh := b.bits[:k], bLo.bits[:k], bHi.bits[:k]
	for i := range av {
		if al[i]&^av[i]|av[i]&^ah[i]|bl[i]&^bv[i]|bv[i]&^bh[i] != 0 {
			return false
		}
	}
	return true
}

// Pairs returns the pairs of the relation in lexicographic order.
func (r Rel) Pairs() [][2]int {
	var out [][2]int
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				out = append(out, [2]int{i, w*wordBits + b})
			}
		}
	}
	return out
}

// RestrictDomain keeps only pairs whose source is in keep.
func (r Rel) RestrictDomain(keep Set) Rel {
	return r.Restrict(keep, FullSet(r.n))
}

// RestrictRange keeps only pairs whose target is in keep.
func (r Rel) RestrictRange(keep Set) Rel {
	return r.Restrict(FullSet(r.n), keep)
}

// Restrict keeps only pairs with source in src and target in dst;
// this implements cat's set-restriction forms such as WR(r) and RM(r).
func (r Rel) Restrict(src, dst Set) Rel {
	out := r.Clone()
	out.RestrictInPlace(src, dst)
	return out
}

func (r Rel) checkSet(s Set) {
	if s.n != r.n {
		panic(fmt.Sprintf("rel: set universe %d does not match relation universe %d", s.n, r.n))
	}
}

// Cross returns the full cartesian product src × dst.
func Cross(src, dst Set) Rel {
	out := New(src.n)
	out.UnionCross(src, dst)
	return out
}

// Domain returns the set of sources of r.
func (r Rel) Domain() Set {
	s := NewSet(r.n)
	for i := 0; i < r.n; i++ {
		for _, w := range r.row(i) {
			if w != 0 {
				s.Add(i)
				break
			}
		}
	}
	return s
}

// Range returns the set of targets of r.
func (r Rel) Range() Set {
	s := NewSet(r.n)
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		for w := range row {
			s.bits[w] |= row[w]
		}
	}
	return s
}

// CycleWitness returns one cycle of r as a sequence of elements
// (each related to the next, last related to first), or nil if acyclic.
// It shares the iterative traversal of Acyclic: the witness is the grey
// path sitting on the explicit frame stack when a cycle closes, so
// arbitrarily deep universes cannot overflow the goroutine stack.
func (r Rel) CycleWitness() []int {
	_, witness := r.cycleDFS(nil, true)
	return witness
}

// intHeap is a min-heap of ints for TopoSort's ready queue.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopoSort returns a topological order of the universe consistent with r,
// or ok=false if r has a cycle. Ties are broken by smallest element first,
// which makes the output deterministic: the ready queue is a min-heap, so
// each pop takes the smallest ready element in O(log n) instead of
// re-sorting the whole queue, and indegrees are counted straight off the
// successor rows without materialising the pair list.
func (r Rel) TopoSort() (order []int, ok bool) {
	indeg := make([]int, r.n)
	for i := 0; i < r.n; i++ {
		for w, word := range r.row(i) {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				indeg[w*wordBits+b]++
			}
		}
	}
	ready := make(intHeap, 0, r.n)
	for i := 0; i < r.n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	heap.Init(&ready)
	order = make([]int, 0, r.n)
	for ready.Len() > 0 {
		u := heap.Pop(&ready).(int)
		order = append(order, u)
		for w, word := range r.row(u) {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				v := w*wordBits + b
				indeg[v]--
				if indeg[v] == 0 {
					heap.Push(&ready, v)
				}
			}
		}
	}
	return order, len(order) == r.n
}

// Linearisations calls yield with every total order extension of r
// (as element sequences). It stops early if yield returns false.
// r must be acyclic; if it is not, no order is yielded.
func (r Rel) Linearisations(yield func([]int) bool) {
	plus := r.Plus()
	used := make([]bool, r.n)
	order := make([]int, 0, r.n)
	var rec func() bool
	rec = func() bool {
		if len(order) == r.n {
			return yield(order)
		}
	next:
		for v := 0; v < r.n; v++ {
			if used[v] {
				continue
			}
			// v can come next iff every plus-predecessor is already placed.
			for u := 0; u < r.n; u++ {
				if !used[u] && u != v && plus.Has(u, v) {
					continue next
				}
			}
			used[v] = true
			order = append(order, v)
			if !rec() {
				return false
			}
			order = order[:len(order)-1]
			used[v] = false
		}
		return true
	}
	rec()
}

// String renders the relation as a sorted pair list, for debugging.
func (r Rel) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range r.Pairs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}
