package bmc

import (
	"math/rand/v2"
	"testing"

	"herdcats/internal/rel"
	"herdcats/internal/sat"
)

// TestAssertAcyclicBruteForce checks assertAcyclic on random symbolic
// relations over a few free variables: under every assignment of the
// variables (planted as assumptions), the instance is satisfiable iff
// the concrete relation the assignment picks is acyclic. Sparse entries
// give relations whose possible edges split into several strongly
// connected components, with edges between them.
func TestAssertAcyclicBruteForce(t *testing.T) {
	const free = 3
	rng := rand.New(rand.NewPCG(19, 3))
	for trial := 0; trial < 400; trial++ {
		s := sat.New()
		c := newCircuit(s)
		vars := make([]sat.Lit, free)
		for i := range vars {
			vars[i] = sat.Lit(s.NewVar())
		}
		m := 2 + rng.IntN(6)
		r := c.emptyRel(m)
		// eval[i][j] gives the entry's value under an assignment.
		eval := make([][]func(uint) bool, m)
		for i := range r {
			eval[i] = make([]func(uint) bool, m)
			for j := range r[i] {
				r[i][j], eval[i][j] = randomEntry(c, rng, vars, i == j)
			}
		}
		c.assertAcyclic(r)
		for a := uint(0); a < 1<<free; a++ {
			assume := make([]sat.Lit, free)
			for v := range vars {
				assume[v] = vars[v]
				if a&(1<<v) == 0 {
					assume[v] = vars[v].Neg()
				}
			}
			concrete := rel.New(m)
			for i := range r {
				for j := range r[i] {
					if eval[i][j](a) {
						concrete.Add(i, j)
					}
				}
			}
			if got, want := s.Solve(assume...), concrete.Acyclic(); got != want {
				t.Fatalf("trial %d, assignment %03b: SAT=%v, acyclic=%v\nrelation %v", trial, a, got, want, concrete.Pairs())
			}
		}
	}
}

// randomEntry draws one relation entry: mostly constant false, otherwise
// true, a free literal, or a two-input gate over free literals. Diagonal
// entries are rarely anything but false.
func randomEntry(c *circuit, rng *rand.Rand, vars []sat.Lit, diag bool) (sat.Lit, func(uint) bool) {
	lit := func() (sat.Lit, func(uint) bool) {
		v := rng.IntN(len(vars))
		if rng.IntN(2) == 0 {
			return vars[v], func(a uint) bool { return a&(1<<v) != 0 }
		}
		return vars[v].Neg(), func(a uint) bool { return a&(1<<v) == 0 }
	}
	k := rng.IntN(10)
	if diag {
		k = rng.IntN(40)
	}
	switch k {
	case 0:
		return c.trueLit, func(uint) bool { return true }
	case 1, 2:
		return lit()
	case 3:
		x, ex := lit()
		y, ey := lit()
		return c.and2(x, y), func(a uint) bool { return ex(a) && ey(a) }
	case 4:
		x, ex := lit()
		y, ey := lit()
		return c.or(x, y), func(a uint) bool { return ex(a) || ey(a) }
	}
	return c.falseLit, func(uint) bool { return false }
}
