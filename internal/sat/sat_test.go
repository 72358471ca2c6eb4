package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func newVars(s *Solver, n int) []Lit {
	out := make([]Lit, n)
	for i := range out {
		out[i] = Lit(s.NewVar())
	}
	return out
}

func TestTrivial(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.AddClause(v[0])
	s.AddClause(v[0].Neg(), v[1])
	if !s.Solve() {
		t.Fatal("expected SAT")
	}
	if !s.ValueLit(v[0]) || !s.ValueLit(v[1]) {
		t.Errorf("model wrong: v0=%v v1=%v", s.ValueLit(v[0]), s.ValueLit(v[1]))
	}
}

func TestUnsatPair(t *testing.T) {
	s := New()
	v := newVars(s, 1)
	s.AddClause(v[0])
	s.AddClause(v[0].Neg())
	if s.Solve() {
		t.Fatal("expected UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	newVars(s, 1)
	s.AddClause()
	if s.Solve() {
		t.Fatal("empty clause must be UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.AddClause(v[0], v[0].Neg()) // tautology: no constraint
	s.AddClause(v[1])
	if !s.Solve() {
		t.Fatal("expected SAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.AddClause(v[0].Neg(), v[1])
	if !s.Solve(v[0]) {
		t.Fatal("expected SAT under assumption v0")
	}
	if !s.ValueLit(v[1]) {
		t.Error("v1 must follow from v0")
	}
	s.AddClause(v[1].Neg())
	if s.Solve(v[0]) {
		t.Error("expected UNSAT under assumption v0 with ¬v1 forced")
	}
	if !s.Solve(v[0].Neg()) {
		t.Error("expected SAT under assumption ¬v0")
	}
}

// TestPigeonhole: n+1 pigeons in n holes is UNSAT; n pigeons in n holes is
// SAT. Exercises clause learning properly.
func TestPigeonhole(t *testing.T) {
	build := func(pigeons, holes int) *Solver {
		s := New()
		at := make([][]Lit, pigeons)
		for p := range at {
			at[p] = newVars(s, holes)
			s.AddClause(at[p]...) // every pigeon in some hole
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(at[p1][h].Neg(), at[p2][h].Neg())
				}
			}
		}
		return s
	}
	if build(5, 5).Solve() != true {
		t.Error("PHP(5,5) should be SAT")
	}
	if build(6, 5).Solve() != false {
		t.Error("PHP(6,5) should be UNSAT")
	}
}

// bruteForce decides a CNF by exhaustive assignment (for cross-checking).
func bruteForce(nVars int, cnf [][]Lit) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, cl := range cnf {
			clauseSat := false
			for _, l := range cl {
				val := mask&(1<<(l.Var()-1)) != 0
				if (l > 0) == val {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce cross-checks CDCL against exhaustive
// search on hundreds of random instances around the phase transition.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(7) // 4..10
		nClauses := int(float64(nVars) * (3.0 + rng.Float64()*2.5))
		var cnf [][]Lit
		for c := 0; c < nClauses; c++ {
			var cl []Lit
			for k := 0; k < 3; k++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					cl = append(cl, Lit(v))
				} else {
					cl = append(cl, Lit(-v))
				}
			}
			cnf = append(cnf, cl)
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := bruteForce(nVars, cnf)
		if got != want {
			t.Fatalf("iter %d: CDCL=%v brute=%v\ncnf=%v", iter, got, want, cnf)
		}
		if got {
			// Verify the model actually satisfies the CNF.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					if s.ValueLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

// TestIncrementalAssumptionsAgainstBruteForce pins the incremental use
// package bmc makes of one solver: random CNF groups share it, each behind
// its own activation literal a (every clause of the group carries ¬a),
// and groups arrive between solves. Each Solve(a_i) must equal brute force
// over the base clauses plus group i alone, and a final Solve() the base
// clauses alone, whatever earlier solves learned or fixed at the top
// level; SAT and UNSAT answers interleave on one solver.
func TestIncrementalAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sats, unsats, flips int
	for iter := 0; iter < 200; iter++ {
		nVars := 4 + rng.Intn(6) // 4..9 problem variables
		// randCNF draws n clauses of one to three literals, mostly three.
		randCNF := func(n int) [][]Lit {
			cnf := make([][]Lit, n)
			for c := range cnf {
				width := 3
				if r := rng.Intn(10); r == 0 {
					width = 1
				} else if r < 3 {
					width = 2
				}
				for k := 0; k < width; k++ {
					l := Lit(1 + rng.Intn(nVars))
					if rng.Intn(2) == 0 {
						l = l.Neg()
					}
					cnf[c] = append(cnf[c], l)
				}
			}
			return cnf
		}
		base := randCNF(nVars + rng.Intn(nVars))
		s := New()
		newVars(s, nVars)
		for _, cl := range base {
			s.AddClause(cl...)
		}
		var groups [][][]Lit
		var acts []Lit
		last := -1 // the previous answer: 0 UNSAT, 1 SAT
		for step := 0; step < 12; step++ {
			if len(groups) == 0 || (len(groups) < 5 && rng.Intn(3) == 0) {
				g := randCNF(nVars + rng.Intn(2*nVars))
				act := Lit(s.NewVar())
				for _, cl := range g {
					s.AddClause(append(append([]Lit(nil), cl...), act.Neg())...)
				}
				groups, acts = append(groups, g), append(acts, act)
			}
			i := rng.Intn(len(groups))
			cnf := append(append([][]Lit(nil), base...), groups[i]...)
			got, want := s.Solve(acts[i]), bruteForce(nVars, cnf)
			if got != want {
				t.Fatalf("iter %d step %d: Solve(group %d of %d)=%v, brute=%v\nbase=%v\ngroup=%v",
					iter, step, i, len(groups), got, want, base, groups[i])
			}
			if got {
				sats++
				for _, cl := range cnf {
					if !slices.ContainsFunc(cl, s.ValueLit) {
						t.Fatalf("iter %d step %d: model does not satisfy clause %v", iter, step, cl)
					}
				}
			} else {
				unsats++
			}
			answer := 0
			if got {
				answer = 1
			}
			if last >= 0 && answer != last {
				flips++
			}
			last = answer
		}
		if got, want := s.Solve(), bruteForce(nVars, base); got != want {
			t.Fatalf("iter %d: Solve() over the base=%v, brute=%v\nbase=%v", iter, got, want, base)
		}
	}
	t.Logf("%d SAT, %d UNSAT answers, %d changes of answer between consecutive solves", sats, unsats, flips)
	if sats < 200 || unsats < 200 || flips < 200 {
		t.Errorf("%d SAT, %d UNSAT, %d flips: the groups no longer interleave both answers", sats, unsats, flips)
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		at := make([][]Lit, 8)
		for p := range at {
			at[p] = newVars(s, 7)
			s.AddClause(at[p]...)
		}
		for h := 0; h < 7; h++ {
			for p1 := 0; p1 < 8; p1++ {
				for p2 := p1 + 1; p2 < 8; p2++ {
					s.AddClause(at[p1][h].Neg(), at[p2][h].Neg())
				}
			}
		}
		if s.Solve() {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}

// TestResetReuseAgainstFresh pins Reset: one solver, reset between
// problems, solves a run of random CNFs of varying size — satisfiable
// ones, UNSAT ones, and ones at the phase transition that learn many
// clauses, some with more clauses than one storage chunk holds — and on
// each must agree with a fresh solver and with brute force on the answer,
// and with the fresh solver on NumVars, NumClauses (before and after
// Solve) and the conflicts it met.
func TestResetReuseAgainstFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reused := New()
	var sats, unsats, learned, bigs int
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(15) // 4..18
		ratio := []float64{2, 4.3, 4.3, 8, 20}[rng.Intn(5)]
		cnf := make([][]Lit, int(float64(nVars)*ratio))
		for c := range cnf {
			for k := 0; k < 3; k++ {
				v := Lit(1 + rng.Intn(nVars))
				if rng.Intn(2) == 0 {
					v = -v
				}
				cnf[c] = append(cnf[c], v)
			}
		}
		reused.Reset()
		fresh := New()
		for _, s := range []*Solver{reused, fresh} {
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
		}
		if reused.NumVars() != nVars || fresh.NumVars() != nVars {
			t.Fatalf("iter %d: NumVars reused %d, fresh %d, want %d", iter, reused.NumVars(), fresh.NumVars(), nVars)
		}
		if r, f := reused.NumClauses(), fresh.NumClauses(); r != f {
			t.Fatalf("iter %d: NumClauses before Solve: reused %d, fresh %d", iter, r, f)
		}
		got, want, brute := reused.Solve(), fresh.Solve(), bruteForce(nVars, cnf)
		if got != want || got != brute {
			t.Fatalf("iter %d: reused %v, fresh %v, brute force %v\ncnf=%v", iter, got, want, brute, cnf)
		}
		if r, f := reused.NumClauses(), fresh.NumClauses(); r != f || reused.Conflicts != fresh.Conflicts {
			t.Fatalf("iter %d: after Solve: reused %d clauses, %d conflicts; fresh %d, %d", iter, r, reused.Conflicts, f, fresh.Conflicts)
		}
		if got {
			sats++
		} else {
			unsats++
		}
		if reused.Conflicts >= 5 {
			learned++
		}
		if reused.NumClauses() > clauseChunk {
			bigs++
		}
	}
	t.Logf("%d SAT, %d UNSAT, %d learning 5+ clauses, %d over one chunk", sats, unsats, learned, bigs)
	if sats == 0 || unsats == 0 || learned < 20 || bigs == 0 {
		t.Fatalf("corpus too tame: %d SAT, %d UNSAT, %d learning 5+ clauses, %d over one chunk", sats, unsats, learned, bigs)
	}
}
