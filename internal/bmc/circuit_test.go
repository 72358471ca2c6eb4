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
		m := 2 + rng.IntN(6)
		s := sat.New()
		c := newCircuit(s, m)
		vars := make([]sat.Lit, free)
		for i := range vars {
			vars[i] = sat.Lit(s.NewVar())
		}
		r, eval := randomRel(c, rng, vars)
		c.assertAcyclic(c.trueLit, r)
		for a := uint(0); a < 1<<free; a++ {
			assume := assignment(vars, a)
			concrete := eval(a)
			if got, want := s.Solve(assume...), concrete.Acyclic(); got != want {
				t.Fatalf("trial %d, assignment %03b: SAT=%v, acyclic=%v\nrelation %v", trial, a, got, want, concrete.Pairs())
			}
		}
	}
}

// TestGuardedAssertionsBruteForce pins which clauses a model's activation
// literal guards. For random symbolic relations a and b over a few free
// variables, each assertion a lowered model makes through gates (Within,
// Empty, Acyclic, Irreflexive) is made behind a fresh act. Under every
// assignment of the free variables, planted as assumptions, the instance
// must be satisfiable with act iff the concrete relations pass the
// assertion, and always without act: an inactive model constrains
// nothing. Constant true entries make some assertions fold to the unit
// ¬act. This is where a dropped Within guard shows: no verdict can, since
// an inactive let rec's pre-fixpoint assertion holds at its upper bound.
func TestGuardedAssertionsBruteForce(t *testing.T) {
	const free = 3
	asserts := []struct {
		name  string
		make  func(g *gates, a, b relExpr)
		holds func(a, b rel.Rel) bool
	}{
		{"within", func(g *gates, a, b relExpr) { g.Within(a, b) }, rel.Rel.SubsetOf},
		{"empty", func(g *gates, a, _ relExpr) { g.Empty(a) }, func(a, _ rel.Rel) bool { return a.IsEmpty() }},
		{"acyclic", func(g *gates, a, _ relExpr) { g.Acyclic(a) }, func(a, _ rel.Rel) bool { return a.Acyclic() }},
		{"irreflexive", func(g *gates, a, _ relExpr) { g.Irreflexive(a) }, func(a, _ rel.Rel) bool { return a.Irreflexive() }},
	}
	rng := rand.New(rand.NewPCG(23, 5))
	for trial := 0; trial < 150; trial++ {
		for _, as := range asserts {
			m := 2 + rng.IntN(5)
			s := sat.New()
			c := newCircuit(s, m)
			vars := make([]sat.Lit, free)
			for i := range vars {
				vars[i] = sat.Lit(s.NewVar())
			}
			a, evalA := randomRel(c, rng, vars)
			b, evalB := randomRel(c, rng, vars)
			act := sat.Lit(s.NewVar())
			as.make(&gates{in: &Instance{s: s, c: c, m: m}, act: act}, a, b)
			for x := uint(0); x < 1<<free; x++ {
				assume := assignment(vars, x)
				ca, cb := evalA(x), evalB(x)
				if got, want := s.Solve(append(assume, act)...), as.holds(ca, cb); got != want {
					t.Fatalf("%s, trial %d, assignment %03b: SAT under act=%v, holds=%v\na=%v b=%v",
						as.name, trial, x, got, want, ca.Pairs(), cb.Pairs())
				}
				if !s.Solve(append(assume, act.Neg())...) {
					t.Fatalf("%s, trial %d, assignment %03b: UNSAT under ¬act\na=%v b=%v",
						as.name, trial, x, ca.Pairs(), cb.Pairs())
				}
			}
		}
	}
}

// assignment returns the literals of vars that bit i of x sets.
func assignment(vars []sat.Lit, x uint) []sat.Lit {
	assume := make([]sat.Lit, len(vars), len(vars)+1)
	for v := range vars {
		assume[v] = vars[v]
		if x&(1<<v) == 0 {
			assume[v] = vars[v].Neg()
		}
	}
	return assume
}

// randomRel draws a symbolic relation of randomEntry entries over the
// circuit's m events, and the concrete relation it denotes under an
// assignment of vars.
func randomRel(c *circuit, rng *rand.Rand, vars []sat.Lit) (relExpr, func(uint) rel.Rel) {
	m := c.m
	r := c.emptyRel()
	eval := make([]func(uint) bool, m*m)
	for i := range r {
		r[i], eval[i] = randomEntry(c, rng, vars, i/m == i%m)
	}
	return r, func(x uint) rel.Rel {
		concrete := rel.New(m)
		for i, e := range eval {
			if e(x) {
				concrete.Add(i/m, i%m)
			}
		}
		return concrete
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
