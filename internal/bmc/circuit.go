// Package bmc implements bounded model checking of litmus tests under the
// axiomatic models, in the spirit of the paper's CBMC experiments
// (Sec. 8.4): the question "is the final condition reachable under model M"
// is compiled to propositional satisfiability and handed to the CDCL
// solver of package sat.
//
// The encoding is relational: boolean variables choose a read-from map,
// per-location coherence orders and one control-flow trace per thread,
// and fr is a circuit over them. The model is a builtin cat program,
// lowered onto the circuit by cat.Lower (DESIGN.md §16): each derived
// relation (ppo, hb, prop) is a matrix of literals over the memory
// events, each let rec group a matrix of fresh variables asserted to be
// a pre-fixpoint of its body, and each acyclicity check an auxiliary
// strict total order per strongly connected component of the relation's
// possible edges. Several models can share one instance, each asserted
// behind an activation literal of its own (EncodeShared, Decide), so the
// model-free part is encoded once for all of them.
package bmc

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"herdcats/internal/cat"
	"herdcats/internal/rel"
	"herdcats/internal/sat"
)

// circuit is a constant-folding, hash-consed Tseitin builder over a SAT
// solver: a gate over the same inputs is built once, so the literal a
// gate returns is a function of its inputs alone (DESIGN.md §16).
type circuit struct {
	s        *sat.Solver
	trueLit  sat.Lit
	falseLit sat.Lit
	// m is the dimension of every relation matrix: the memory events.
	m int
	// andCache keys an and2 gate by its ordered input pair; orCache keys
	// a wider or gate by the bytes of its inputs sorted by variable.
	andCache map[[2]sat.Lit]sat.Lit
	orCache  map[string]sat.Lit
	// Scratch reused across calls: or's sorted inputs (slot 0 is kept for
	// the gate's own literal in its long clause), its key, seq's terms
	// and column masks.
	orBuf  []sat.Lit
	keyBuf []byte
	terms  []sat.Lit
	cols   []uint32
	// Relation matrices are carved from slab chunks, handed out in order
	// and rewound by reset, so a reused circuit builds its matrices in
	// the chunks of earlier instances.
	slab  [][]sat.Lit
	snext int       // next chunk of slab to hand out
	free  []sat.Lit // the rest of the current chunk
}

// slabChunk is the literal count of one slab chunk: room for 7 matrices
// at the encoding bound of 24 memory events, and for most comparisons'
// matrices in two chunks.
const slabChunk = 4 << 10

// start readies the circuit over the empty solver s for matrices of
// dimension m: its constant true, and empty gate caches.
func (c *circuit) start(s *sat.Solver, m int) {
	t := sat.Lit(s.NewVar())
	s.AddClause(t)
	c.s, c.trueLit, c.falseLit, c.m = s, t, t.Neg(), m
	if c.andCache == nil {
		c.andCache, c.orCache = map[[2]sat.Lit]sat.Lit{}, map[string]sat.Lit{}
	}
}

// reset empties the gate caches and rewinds the slab, keeping both.
func (c *circuit) reset() {
	clear(c.andCache)
	clear(c.orCache)
	c.s, c.snext, c.free = nil, 0, nil
}

// store is the storage an Instance keeps for the next: its solver and
// circuit, and its variable maps. Instance.Release empties a store and
// puts it in stores.
type store struct {
	s            sat.Solver
	c            circuit
	rfVar, coPos map[[2]int]sat.Lit
	midx         map[int]int
	models       map[*cat.Compiled]lowered
}

var stores sync.Pool

// takeStore returns an empty store, from the pool when it has one.
func takeStore() *store {
	if st, ok := stores.Get().(*store); ok {
		return st
	}
	st := &store{rfVar: map[[2]int]sat.Lit{}, coPos: map[[2]int]sat.Lit{},
		midx: map[int]int{}, models: map[*cat.Compiled]lowered{}}
	st.s.Reset() // the empty solver New returns
	return st
}

// put empties the store and returns it to the pool.
func (st *store) put() {
	st.s.Reset()
	st.c.reset()
	clear(st.rfVar)
	clear(st.coPos)
	clear(st.midx)
	clear(st.models)
	stores.Put(st)
}

func (c *circuit) constOf(b bool) sat.Lit {
	if b {
		return c.trueLit
	}
	return c.falseLit
}

func (c *circuit) isTrue(l sat.Lit) bool  { return l == c.trueLit }
func (c *circuit) isFalse(l sat.Lit) bool { return l == c.falseLit }

// and2 returns a literal equivalent to a ∧ b.
func (c *circuit) and2(a, b sat.Lit) sat.Lit {
	switch {
	case c.isFalse(a) || c.isFalse(b):
		return c.falseLit
	case c.isTrue(a):
		return b
	case c.isTrue(b):
		return a
	case a == b:
		return a
	case a == b.Neg():
		return c.falseLit
	}
	if a > b {
		a, b = b, a
	}
	if v, ok := c.andCache[[2]sat.Lit{a, b}]; ok {
		return v
	}
	v := sat.Lit(c.s.NewVar())
	c.s.AddClause(v.Neg(), a)
	c.s.AddClause(v.Neg(), b)
	c.s.AddClause(v, a.Neg(), b.Neg())
	c.andCache[[2]sat.Lit{a, b}] = v
	return v
}

// or returns a literal equivalent to the disjunction of ls. Its inputs
// are sorted by variable as they are kept, which puts a duplicate or a
// complementary pair next to each other and gives the gate its key. A
// two-input or is ¬(¬a ∧ ¬b): the same three clauses, from and2's cache.
func (c *circuit) or(ls ...sat.Lit) sat.Lit {
	kept := append(c.orBuf[:0], 0)
next:
	for _, l := range ls {
		switch {
		case c.isTrue(l):
			return c.trueLit
		case c.isFalse(l):
			continue
		}
		i := len(kept)
		for ; i > 1 && kept[i-1].Var() >= l.Var(); i-- {
			if kept[i-1] == l {
				continue next
			}
			if kept[i-1] == l.Neg() {
				return c.trueLit
			}
		}
		kept = append(kept, 0)
		copy(kept[i+1:], kept[i:])
		kept[i] = l
	}
	c.orBuf = kept
	switch len(kept) {
	case 1:
		return c.falseLit
	case 2:
		return kept[1]
	case 3:
		return c.and2(kept[1].Neg(), kept[2].Neg()).Neg()
	}
	key := c.keyBuf[:0]
	for _, l := range kept[1:] {
		key = binary.LittleEndian.AppendUint32(key, uint32(l))
	}
	c.keyBuf = key
	if v, ok := c.orCache[string(key)]; ok {
		return v
	}
	v := sat.Lit(c.s.NewVar())
	for _, l := range kept[1:] {
		c.s.AddClause(l.Neg(), v)
	}
	kept[0] = v.Neg()
	c.s.AddClause(kept...)
	c.orCache[string(key)] = v
	return v
}

// assert adds the clause lits ∨ ¬act: a constraint of the model that the
// activation literal act switches on. Under act = trueLit the guard is a
// top-level false literal, which sat.AddClause drops, so the clause is
// lits alone (DESIGN.md §16).
func (c *circuit) assert(act sat.Lit, lits ...sat.Lit) {
	var buf [4]sat.Lit // the longest guarded clause: an edge, its order, act
	c.s.AddClause(append(append(buf[:0], lits...), act.Neg())...)
}

// implies asserts act → (a → b).
func (c *circuit) implies(act, a, b sat.Lit) {
	switch {
	case c.isFalse(a) || c.isTrue(b):
	case c.isTrue(a):
		c.assert(act, b)
	case c.isFalse(b):
		c.assert(act, a.Neg())
	default:
		c.assert(act, a.Neg(), b)
	}
}

// --- Relation matrices -------------------------------------------------

// relExpr is an m×m matrix of literals denoting a symbolic relation over
// memory events, row by row: entry (i, j) is r[i*m+j]. It holds no
// pointer, so the garbage collector never scans one.
type relExpr []sat.Lit

func (c *circuit) emptyRel() relExpr {
	k := c.m * c.m
	if len(c.free) < k {
		c.free = c.chunk(k)
	}
	r := relExpr(c.free[:k:k])
	c.free = c.free[k:]
	for i := range r {
		r[i] = c.falseLit
	}
	return r
}

// chunk hands out the next slab chunk of at least k literals, skipping
// shorter ones, or a new one kept from then on.
func (c *circuit) chunk(k int) []sat.Lit {
	for c.snext < len(c.slab) {
		ch := c.slab[c.snext]
		c.snext++
		if len(ch) >= k {
			return ch
		}
	}
	ch := make([]sat.Lit, max(slabChunk, k))
	c.slab = append(c.slab, ch)
	c.snext = len(c.slab)
	return ch
}

func (c *circuit) union(a, b relExpr) relExpr {
	out := c.emptyRel()
	for i := range out {
		out[i] = c.or(a[i], b[i])
	}
	return out
}

func (c *circuit) inter(a, b relExpr) relExpr {
	out := c.emptyRel()
	for i := range out {
		out[i] = c.and2(a[i], b[i])
	}
	return out
}

// seq composes a with b. An (i, j) entry is the or of a(i,k) ∧ b(k,j)
// over the k where neither is constant false, found as the bits of a
// row mask of a and a column mask of b (m ≤ 24, the encoding bound).
func (c *circuit) seq(a, b relExpr) relExpr {
	m := c.m
	out := c.emptyRel()
	cols := c.cols[:0]
	for j := 0; j < m; j++ {
		var col uint32
		for k := 0; k < m; k++ {
			if !c.isFalse(b[k*m+j]) {
				col |= 1 << k
			}
		}
		cols = append(cols, col)
	}
	c.cols = cols
	for i := 0; i < m; i++ {
		var row uint32
		for k, l := range a[i*m : (i+1)*m] {
			if !c.isFalse(l) {
				row |= 1 << k
			}
		}
		for j := 0; j < m && row != 0; j++ {
			ks := row & cols[j]
			if ks == 0 {
				continue // no path: the entry stays constant false
			}
			terms := c.terms[:0]
			for ; ks != 0; ks &= ks - 1 {
				k := bits.TrailingZeros32(ks)
				terms = append(terms, c.and2(a[i*m+k], b[k*m+j]))
			}
			c.terms = terms
			out[i*m+j] = c.or(terms...)
		}
	}
	return out
}

// star computes the reflexive-transitive closure by repeated squaring.
// Squaring is a pure function of the matrix's literals (the gates are
// hash-consed), so once a round returns its input every later round
// would too, and the loop stops there with the formula the full
// unrolling builds.
func (c *circuit) star(a relExpr) relExpr {
	m := c.m
	s := c.emptyRel()
	copy(s, a)
	for i := 0; i < m; i++ {
		s[i*m+i] = c.trueLit
	}
	rounds := 1
	for size := 1; size < m; size *= 2 {
		rounds++
	}
	for r := 0; r < rounds; r++ {
		next := c.seq(s, s)
		if slices.Equal(next, s) {
			break
		}
		s = next
	}
	return s
}

// assertAcyclic encodes acyclic(R): ¬R(i,i) for every i, and a fresh
// strict total order inside each strongly connected component of R's
// possible edges (the entries not constant false) that R's edges there
// must follow. Under any assignment a cycle of R uses possible edges
// only, so it lies inside one component; the per-component orders exist
// iff R is acyclic (DESIGN.md §16). Edges between components need no
// clause, and initial writes, which no possible edge reaches, are in no
// component. Each clause over R's entries is guarded by act; the order
// variables are fresh, and their transitivity clauses hold of some order
// whatever else is assigned, so they need no guard.
func (c *circuit) assertAcyclic(act sat.Lit, r relExpr) {
	m := c.m
	reach := rel.New(m)
	for i := 0; i < m; i++ {
		if !c.isFalse(r[i*m+i]) {
			c.assert(act, r[i*m+i].Neg())
		}
		for j := 0; j < m; j++ {
			if i != j && !c.isFalse(r[i*m+j]) {
				reach.Add(i, j)
			}
		}
	}
	reach.PlusInPlace()
	inComp := make([]bool, m)
	var comp []int
	for i := 0; i < m; i++ {
		// The lowest member of a component is the first one met.
		if inComp[i] || !reach.Has(i, i) {
			continue
		}
		comp = append(comp[:0], i)
		for j := i + 1; j < m; j++ {
			if reach.Has(i, j) && reach.Has(j, i) {
				comp = append(comp, j)
				inComp[j] = true
			}
		}
		c.orderWithin(act, r, comp)
	}
}

// orderWithin asserts a strict total order over the events of comp that
// every edge of r between them follows, when act holds.
func (c *circuit) orderWithin(act sat.Lit, r relExpr, comp []int) {
	n := len(comp)
	// ord[a*n+b] is the literal for "comp[a] before comp[b]".
	ord := make([]sat.Lit, n*n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			v := sat.Lit(c.s.NewVar())
			ord[a*n+b], ord[b*n+a] = v, v.Neg()
		}
	}
	// Transitivity: rotating a triple gives the same clause, so the two
	// orientations of each unordered triple cover all six.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for k := b + 1; k < n; k++ {
				c.s.AddClause(ord[a*n+b].Neg(), ord[b*n+k].Neg(), ord[a*n+k])
				c.s.AddClause(ord[a*n+k].Neg(), ord[k*n+b].Neg(), ord[a*n+b])
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if e := r[comp[a]*c.m+comp[b]]; a != b && !c.isFalse(e) {
				c.assert(act, e.Neg(), ord[a*n+b])
			}
		}
	}
}

// assertIrreflexive encodes act → irreflexive(R).
func (c *circuit) assertIrreflexive(act sat.Lit, r relExpr) {
	for i := 0; i < c.m; i++ {
		if l := r[i*c.m+i]; !c.isFalse(l) {
			c.assert(act, l.Neg())
		}
	}
}
