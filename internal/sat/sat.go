// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: watched literals, 1UIP conflict analysis with clause learning,
// activity-based (VSIDS-style) decisions and non-chronological
// backjumping. It is the engine behind package bmc, our stand-in for the
// CBMC backend used in Sec. 8.4 of the paper.
package sat

import "fmt"

// Lit is a literal: +v for variable v, -v for its negation (v ≥ 1).
type Lit int32

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

// index maps a literal to a dense index: 2(v-1) for +v, 2(v-1)+1 for -v.
func (l Lit) index() int {
	if l > 0 {
		return 2 * (int(l) - 1)
	}
	return 2*(int(-l)-1) + 1
}

// value of assignment.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learned bool
}

// Clauses and their literals are carved from chunks of these sizes (a
// longer clause gets a chunk of its own length).
const (
	clauseChunk = 256
	litChunk    = 2048
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// Reset empties it for another problem and keeps its storage: the
// per-variable arrays, the watch lists and the clause chunks.
type Solver struct {
	nVars   int
	clauses []*clause
	watches [][]*clause // literal index -> clauses watching it

	assign  []lbool // by var (1-based; index 0 unused)
	level   []int   // decision level per var
	reason  []*clause
	trail   []Lit
	trailLm []int // trail length at each decision level

	activity []float64
	varInc   float64

	seen      []bool // scratch for conflict analysis
	addBuf    []Lit  // scratch for AddClause's simplification
	learnBuf  []Lit  // scratch for the clause analyze learns
	propHead  int
	unsatable bool // a top-level conflict was found

	// Clause storage: every clause and its literals live in chunks the
	// solver owns, handed out in order; Reset rewinds the cursors, so a
	// reused solver stores its clauses in the chunks of earlier problems.
	// A chunk never grows, so a clause's address stays fixed.
	cchunks    [][]clause
	lchunks    [][]Lit
	cnext      int      // next chunk of cchunks to hand out
	lnext      int      // next chunk of lchunks to hand out
	clauseFree []clause // the rest of the current clause chunk
	litFree    []Lit    // the rest of the current literal chunk

	// Stats for the curious.
	Conflicts  int64
	Decisions  int64
	Propagated int64
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1}
}

// Reset empties the solver: no variables, no clauses, no statistics, as
// New returns it. It keeps its storage for the next problem, so the
// clauses, learned clauses and watch lists of the last one must no longer
// be referenced, as nothing outside the solver can.
func (s *Solver) Reset() {
	s.nVars = 0
	clear(s.clauses) // the chunks hold the clauses; drop the pointers
	s.clauses = s.clauses[:0]
	s.watches = s.watches[:0]
	s.assign, s.level, s.reason = s.assign[:0], s.level[:0], s.reason[:0]
	s.activity, s.seen = s.activity[:0], s.seen[:0]
	s.trail, s.trailLm = s.trail[:0], s.trailLm[:0]
	s.varInc, s.propHead, s.unsatable = 1, 0, false
	s.Conflicts, s.Decisions, s.Propagated = 0, 0, 0
	s.cnext, s.lnext = 0, 0
	s.clauseFree, s.litFree = nil, nil
}

// extend grows xs to length n with zero values, in its spare capacity
// when it has some.
func extend[T any](xs []T, n int) []T {
	var zero T
	for len(xs) < n {
		xs = append(xs, zero)
	}
	return xs
}

// NewVar allocates a fresh variable and returns its (positive) index.
func (s *Solver) NewVar() int {
	s.nVars++
	n := s.nVars + 1 // index 0 unused
	s.assign = extend(s.assign, n)
	s.level = extend(s.level, n)
	s.reason = extend(s.reason, n)
	s.activity = extend(s.activity, n)
	s.seen = extend(s.seen, n)
	for len(s.watches) < 2*s.nVars {
		if k := len(s.watches); k < cap(s.watches) {
			s.watches = s.watches[:k+1] // the list an earlier problem grew
			s.watches[k] = s.watches[k][:0]
		} else {
			s.watches = append(s.watches, nil)
		}
	}
	return s.nVars
}

// newClause stores a copy of lits as a clause, carved from the chunks.
func (s *Solver) newClause(lits []Lit, learned bool) *clause {
	if len(s.litFree) < len(lits) {
		s.litFree = takeChunk(&s.lchunks, &s.lnext, max(litChunk, len(lits)))
	}
	if len(s.clauseFree) == 0 {
		s.clauseFree = takeChunk(&s.cchunks, &s.cnext, clauseChunk)
	}
	c := &s.clauseFree[0]
	s.clauseFree = s.clauseFree[1:]
	k := len(lits)
	*c = clause{lits: s.litFree[:k:k], learned: learned}
	s.litFree = s.litFree[k:]
	copy(c.lits, lits)
	return c
}

// takeChunk hands out the next kept chunk of at least size elements,
// skipping shorter ones, or a new chunk of exactly size kept from then on.
func takeChunk[T any](chunks *[][]T, next *int, size int) []T {
	for *next < len(*chunks) {
		ch := (*chunks)[*next]
		*next++
		if len(ch) >= size {
			return ch
		}
	}
	ch := make([]T, size)
	*chunks = append(*chunks, ch)
	*next = len(*chunks)
	return ch
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of stored clauses. Before Solve these are
// the problem clauses that survived simplification (a unit clause is
// assigned, not stored); after it, learned clauses count too.
func (s *Solver) NumClauses() int { return len(s.clauses) }

func (s *Solver) litValue(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if (l > 0) == (v == lTrue) {
		return lTrue
	}
	return lFalse
}

// AddClause adds a clause (a disjunction of literals). Adding an empty
// clause, or one whose literals are all already false at the top level,
// marks the instance unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsatable {
		return
	}
	// Drop any leftover search state (e.g. the model of a previous Solve):
	// clause simplification below must only trust root-level assignments.
	s.cancelUntil(0)
	// Simplify: drop duplicates and false top-level literals; detect
	// tautologies and satisfied clauses. Clauses are short, so a scan
	// over the literals kept so far replaces a set; they are kept in a
	// reused buffer and copied out only for a clause that is stored.
	out := s.addBuf[:0]
next:
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			panic(fmt.Sprintf("sat: bad literal %d (have %d vars)", l, s.nVars))
		}
		for _, k := range out {
			if k == l {
				continue next
			}
			if k == l.Neg() {
				return // tautology
			}
		}
		switch s.litValue(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return // already satisfied at top level
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // drop false literal
			}
		}
		out = append(out, l)
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.unsatable = true
		return
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsatable = true
		}
		if conflict := s.propagate(); conflict != nil {
			s.unsatable = true
		}
		return
	}
	c := s.newClause(out, false)
	s.clauses = append(s.clauses, c)
	s.watch(c)
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Neg().index()] = append(s.watches[c.lits[0].Neg().index()], c)
	s.watches[c.lits[1].Neg().index()] = append(s.watches[c.lits[1].Neg().index()], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLm) }

// enqueue assigns a literal true with the given reason clause.
func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = lTrue
	} else {
		s.assign[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.propHead < len(s.trail) {
		l := s.trail[s.propHead]
		s.propHead++
		s.Propagated++
		// Clauses watching ¬l must find a new watch or propagate/conflict.
		ws := s.watches[l.index()]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			// Ensure the false literal is lits[1].
			if c.lits[0].Neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg().index()] = append(s.watches[c.lits[1].Neg().index()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep the remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[l.index()] = kept
				return c
			}
		}
		s.watches[l.index()] = kept
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs 1UIP conflict analysis, returning the learned clause
// (asserting literal first) and the backjump level. The clause is the
// solver's scratch, overwritten by the next analysis.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learned := append(s.learnBuf[:0], 0) // slot 0 for the asserting literal
	counter := 0
	var p Lit
	c := conflict
	idx := len(s.trail) - 1
	for {
		for _, q := range c.lits {
			if p != 0 && q.Var() == p.Var() {
				continue // the resolved-on literal itself
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		s.seen[p.Var()] = false
		idx--
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learned[0] = p.Neg()
	// Backjump level: highest level among the other literals.
	bj := 0
	for i := 1; i < len(learned); i++ {
		if lv := s.level[learned[i].Var()]; lv > bj {
			bj = lv
		}
	}
	for _, l := range learned {
		s.seen[l.Var()] = false
	}
	s.learnBuf = learned
	return learned, bj
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLm[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:limit]
	s.trailLm = s.trailLm[:level]
	if s.propHead > limit {
		s.propHead = limit
	}
}

// pickBranch returns the unassigned variable with the highest activity.
func (s *Solver) pickBranch() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// Solve decides satisfiability under the optional assumptions.
func (s *Solver) Solve(assumptions ...Lit) bool {
	if s.unsatable {
		return false
	}
	s.cancelUntil(0)
	if conflict := s.propagate(); conflict != nil {
		s.unsatable = true
		return false
	}
	// Plant assumptions as decisions.
	for _, a := range assumptions {
		if s.litValue(a) == lTrue {
			continue
		}
		s.trailLm = append(s.trailLm, len(s.trail))
		if !s.enqueue(a, nil) || s.propagate() != nil {
			s.cancelUntil(0)
			return false
		}
	}
	rootLevel := s.decisionLevel()

	for {
		conflict := s.propagate()
		if conflict != nil {
			s.Conflicts++
			if s.decisionLevel() <= rootLevel {
				s.cancelUntil(0)
				if rootLevel == 0 {
					s.unsatable = true
				}
				return false
			}
			learned, bj := s.analyze(conflict)
			if bj < rootLevel {
				bj = rootLevel
			}
			s.cancelUntil(bj)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					s.cancelUntil(0)
					return false
				}
			} else {
				c := s.newClause(learned, true)
				s.clauses = append(s.clauses, c)
				s.watch(c)
				if !s.enqueue(learned[0], c) {
					s.cancelUntil(0)
					return false
				}
			}
			s.varInc /= 0.95
			continue
		}
		v := s.pickBranch()
		if v == 0 {
			return true // full assignment
		}
		s.Decisions++
		s.trailLm = append(s.trailLm, len(s.trail))
		// Phase: default false (empty relations are the common case in
		// our encodings).
		if !s.enqueue(Lit(-v), nil) {
			panic("sat: decision on assigned variable")
		}
	}
}

// Value returns the assignment of variable v after a successful Solve.
func (s *Solver) Value(v int) bool {
	return s.assign[v] == lTrue
}

// ValueLit returns the truth of a literal after a successful Solve.
func (s *Solver) ValueLit(l Lit) bool {
	return s.litValue(l) == lTrue
}
