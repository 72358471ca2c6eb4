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
// possible edges.
package bmc

import (
	"encoding/binary"

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
	// andCache keys an and2 gate by its ordered input pair; orCache keys
	// a wider or gate by the bytes of its inputs sorted by variable.
	andCache map[[2]sat.Lit]sat.Lit
	orCache  map[string]sat.Lit
	// Scratch reused across calls: or's sorted inputs (slot 0 is kept for
	// the gate's own literal in its long clause), its key, seq's terms.
	orBuf  []sat.Lit
	keyBuf []byte
	terms  []sat.Lit
}

func newCircuit(s *sat.Solver) *circuit {
	t := sat.Lit(s.NewVar())
	s.AddClause(t)
	return &circuit{s: s, trueLit: t, falseLit: t.Neg(),
		andCache: map[[2]sat.Lit]sat.Lit{}, orCache: map[string]sat.Lit{}}
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

// implies asserts a → b.
func (c *circuit) implies(a, b sat.Lit) {
	switch {
	case c.isFalse(a) || c.isTrue(b):
	case c.isTrue(a):
		c.s.AddClause(b)
	case c.isFalse(b):
		c.s.AddClause(a.Neg())
	default:
		c.s.AddClause(a.Neg(), b)
	}
}

// --- Relation matrices -------------------------------------------------

// relExpr is an m×m matrix of literals denoting a symbolic relation over
// memory events.
type relExpr [][]sat.Lit

func (c *circuit) emptyRel(m int) relExpr {
	cells := make([]sat.Lit, m*m)
	for i := range cells {
		cells[i] = c.falseLit
	}
	r := make(relExpr, m)
	for i := range r {
		r[i] = cells[i*m : (i+1)*m : (i+1)*m]
	}
	return r
}

// sameRel reports whether two relations are literal-for-literal equal.
func sameRel(a, b relExpr) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func (c *circuit) union(a, b relExpr) relExpr {
	m := len(a)
	out := c.emptyRel(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[i][j] = c.or(a[i][j], b[i][j])
		}
	}
	return out
}

func (c *circuit) inter(a, b relExpr) relExpr {
	m := len(a)
	out := c.emptyRel(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out[i][j] = c.and2(a[i][j], b[i][j])
		}
	}
	return out
}

func (c *circuit) seq(a, b relExpr) relExpr {
	m := len(a)
	out := c.emptyRel(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			terms := c.terms[:0]
			for k := 0; k < m; k++ {
				if !c.isFalse(a[i][k]) && !c.isFalse(b[k][j]) {
					terms = append(terms, c.and2(a[i][k], b[k][j]))
				}
			}
			c.terms = terms
			out[i][j] = c.or(terms...)
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
	m := len(a)
	s := c.emptyRel(m)
	for i := 0; i < m; i++ {
		copy(s[i], a[i])
		s[i][i] = c.trueLit
	}
	rounds := 1
	for size := 1; size < m; size *= 2 {
		rounds++
	}
	for r := 0; r < rounds; r++ {
		next := c.seq(s, s)
		if sameRel(next, s) {
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
// component.
func (c *circuit) assertAcyclic(r relExpr) {
	m := len(r)
	reach := rel.New(m)
	for i := 0; i < m; i++ {
		if !c.isFalse(r[i][i]) {
			c.s.AddClause(r[i][i].Neg())
		}
		for j := 0; j < m; j++ {
			if i != j && !c.isFalse(r[i][j]) {
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
		c.orderWithin(r, comp)
	}
}

// orderWithin asserts a strict total order over the events of comp that
// every edge of r between them follows.
func (c *circuit) orderWithin(r relExpr, comp []int) {
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
			if e := r[comp[a]][comp[b]]; a != b && !c.isFalse(e) {
				c.s.AddClause(e.Neg(), ord[a*n+b])
			}
		}
	}
}

// assertIrreflexive encodes irreflexive(R).
func (c *circuit) assertIrreflexive(r relExpr) {
	for i := range r {
		if !c.isFalse(r[i][i]) {
			c.s.AddClause(r[i][i].Neg())
		}
	}
}
