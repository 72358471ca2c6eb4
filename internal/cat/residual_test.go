package cat_test

// Tests pinning the per-skeleton specialisation of the compiled evaluator:
// the bounds it derives contain every enumerated candidate, a hand-built
// execution outside them still gets the interpreter's verdict, and
// residual programs agree with the interpreter on shapes whose rf and co
// stay open, for monotone and non-monotone let rec groups alike.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// openShapes are tests whose skeletons leave rf and co open: several
// same-value writes feed each read, and every location has several
// writes, so candidates of one skeleton differ in both.
var openShapes = []string{`PPC open-rf
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; 2:r1=x; 2:r2=y; }
 P0 | P1 | P2 ;
 li r4,1 | li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | stw r4,0(r2) | lwsync ;
 stw r4,0(r2) | stw r4,0(r1) | lwz r6,0(r2) ;
exists (2:r5=1 /\ 2:r6=1)`, `PPC open-co
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,1 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 lwz r5,0(r2) | lwz r5,0(r2) ;
 li r6,2 | li r6,2 ;
 stw r6,0(r2) | stw r6,0(r2) ;
exists (0:r5=1 /\ 1:r5=1)`}

func openPrograms(t *testing.T) []*exec.Program {
	t.Helper()
	var progs []*exec.Program
	for _, src := range openShapes {
		p, err := exec.Compile(litmus.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestSkeletonBoundsContain: for every catalogue test, every enumerated
// candidate lies inside the rf and co bounds its skeleton's events give.
func TestSkeletonBoundsContain(t *testing.T) {
	progs := openPrograms(t)
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		err := p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
			rfLo, rfHi, coLo, coHi := cat.SkeletonBounds(cd.X.Skeleton)
			rf := cd.X.MemRF()
			if !rfLo.SubsetOf(rf) || !rf.SubsetOf(rfHi) || !coLo.SubsetOf(cd.X.CO) || !cd.X.CO.SubsetOf(coHi) {
				t.Fatalf("%s: candidate outside its skeleton's bounds\nrf %v in [%v, %v]\nco %v in [%v, %v]",
					p.Test.Name, rf, rfLo, rfHi, cd.X.CO, coLo, coHi)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// writeOnlyShape is the benchmark's cold-heavy shape: four threads each
// store to x and y around an lwsync, 576 candidates.
const writeOnlyShape = `PPC writes
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; 2:r1=x; 2:r2=y; 3:r1=x; 3:r2=y; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | li r4,2 | li r4,3 | li r4,4 ;
 stw r4,0(r1) | stw r4,0(r2) | stw r4,0(r1) | stw r4,0(r2) ;
 lwsync | lwsync | lwsync | lwsync ;
 stw r4,0(r2) | stw r4,0(r1) | stw r4,0(r2) | stw r4,0(r1) ;
exists (x=1 /\ y=2)`

// TestResidualShrinksWriteOnlyPower pins what specialisation is for: on a
// shape that writes and never reads, rf and its kin are empty for every
// candidate, so Power's ppo fixpoint, hb, prop-base and the observation
// check fold away and the residual program keeps a small fraction of the
// generic one. The shape is the benchmark's cold-heavy one.
func TestResidualShrinksWriteOnlyPower(t *testing.T) {
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(litmus.MustParse(writeOnlyShape))
	if err != nil {
		t.Fatal(err)
	}
	ev := m.NewEvaluator()
	n := 0
	if err := p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
		if want, got := m.Check(cd.X), ev.Check(cd.X); want.Valid != got.Valid {
			t.Fatalf("candidate %d: interp=%+v compiled=%+v", n, want, got)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	generic, residual := cat.ProgramSizes(ev)
	if residual < 0 || residual*8 > generic {
		t.Errorf("%d candidates: residual program has %d instructions of the generic %d, want under an eighth", n, residual, generic)
	}
}

// TestDemandPinsPower pins what the compiled Power evaluator derives per
// candidate. The generic program reads rf, its splits, co, coe, fr, fre
// and com, never sw, coi or fri; on the cold-heavy shape the residual
// program reads co alone, and the covers guard adds rf. A lowering change
// that widens either set shows up here, not as a silent slowdown.
func TestDemandPinsPower(t *testing.T) {
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(litmus.MustParse(writeOnlyShape))
	if err != nil {
		t.Fatal(err)
	}
	ev := m.NewEvaluator()
	if err := p.Search(context.Background(), exec.Request{Deferred: true}, func(cd *exec.Candidate) bool {
		ev.Check(cd.X)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	generic, residual := cat.Demands(ev)
	wantGeneric := events.DynRF | events.DynRFE | events.DynRFI | events.DynCO | events.DynCOE |
		events.DynFR | events.DynFRE | events.DynCom
	if generic != wantGeneric {
		t.Errorf("power.cat generic demand %#x, want %#x", generic, wantGeneric)
	}
	if want := events.DynRF | events.DynCO; residual != want {
		t.Errorf("cold-heavy residual demand with the guard %#x, want %#x", residual, want)
	}
}

// TestResidualGuard: an execution built by hand on a specialised skeleton
// but outside its bounds — a read fed by a write of another value, or a
// coherence order that does not start at the initial write — gets the
// interpreter's verdict, not the skeleton's decided one.
func TestResidualGuard(t *testing.T) {
	changed := 0 // hand-built executions whose verdict differs from the skeleton's
	defer cat.SpecialiseAfter(0)()
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mp+lwsync+addr", "2+2w"} {
		e, _ := catalog.ByName(name)
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
			ev := m.NewEvaluator()
			ev.Check(cd.X) // specialises the skeleton
			for _, y := range outsideBounds(cd.X) {
				want, got := m.Check(y), ev.Check(y)
				if want.Valid != got.Valid || strings.Join(want.FailedChecks, ",") != strings.Join(got.FailedChecks, ",") {
					t.Fatalf("%s: hand-built execution: interp=%+v compiled=%+v", name, want, got)
				}
				if want.Valid != m.Check(cd.X).Valid {
					changed++
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if changed == 0 {
		t.Error("no hand-built execution changes the verdict; the guard is untested")
	}
}

// outsideBounds returns executions on x's skeleton that the enumerator
// never produces: each read fed by every write of its location in turn
// (values ignored), and x with its initial writes moved last in coherence.
func outsideBounds(x *events.Execution) []*events.Execution {
	var out []*events.Execution
	mk := func(edit func(y *events.Execution)) {
		y := *x
		y.RF, y.CO = x.RF.Clone(), x.CO.Clone()
		edit(&y)
		y.DeriveDynamic()
		out = append(out, &y)
	}
	for _, r := range x.Events {
		if r.Kind != events.MemRead {
			continue
		}
		for _, w := range x.Events {
			if w.Kind == events.MemWrite && w.Loc == r.Loc && !x.RF.Has(w.ID, r.ID) {
				mk(func(y *events.Execution) {
					for _, v := range x.Events {
						y.RF.Remove(v.ID, r.ID)
					}
					y.RF.Add(w.ID, r.ID)
				})
			}
		}
	}
	mk(func(y *events.Execution) {
		for _, w := range x.Events {
			for _, v := range x.Events {
				if w.IsInit() && x.CO.Has(w.ID, v.ID) {
					y.CO.Remove(w.ID, v.ID)
					y.CO.Add(v.ID, w.ID)
				}
			}
		}
	})
	return out
}

// TestResidualEquivalenceRandom: on the open shapes, every candidate's
// verdict under a residual program equals the interpreter's, for random
// programs with monotone groups and for ones whose group members sit
// under ~ or on the right of \. A program the interpreter finds divergent
// must stay an error.
func TestResidualEquivalenceRandom(t *testing.T) {
	defer cat.SpecialiseAfter(0)()
	rng := rand.New(rand.NewSource(0x5EC))
	progs := openPrograms(t)
	for i := 0; i < 120; i++ {
		m := randModelWith(t, rng, genRich)
		sameVerdicts(t, m, progs[i%len(progs)], fmt.Sprintf("program %d", i))
	}
}

// TestResidualRegressions: programs that tell a sound specialisation from
// one that forgets to swap the bounds of \ or ~, starts a group whose
// members occur under ~ or on the right of \ from its lower bound instead
// of ∅, or drops a dead group that may diverge. A random search found the first five. Each is checked on
// the shape that exposes it.
func TestResidualRegressions(t *testing.T) {
	defer cat.SpecialiseAfter(0)()
	open := openPrograms(t)
	s, _ := catalog.ByName("s")
	sp, err := exec.Compile(s.Test())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		p   *exec.Program
		src string
	}{
		// Starting the non-monotone b/bx group from its lower bound.
		{open[1], `let a = (po-loc | data)+
let rec b = ((a | com) \ bx) | (b ; b) and bx = ((a & addr) & ~b) | WM(rf)
let c = (b ; bx) \ MM(b)
empty (c \ sync)+`},
		// The \ and ~ bounds unswapped.
		{open[1], `let a = ~po \ MM(fr)
let rec c = ~a | (c ; c) | cx and cx = (0 \ po) | c
acyclic (cx \ sw) ; c`},
		{open[0], `let rec a = (rfe \ ax) | (a ; a) and ax = ((ctrl ; co) & ~a) | ~com
let rec b = (ax \ bx) | (b ; b) and bx = (WR(ax) & ~b) | (ctrl ; id)
empty RR(~bx)
empty (fr \ ax) ; (sync | po)`},
		// The \ bounds unswapped.
		{sp, `let a = co?
let rec b = (co+ \ bx) | (b ; b) and bx = (~addr & ~b) | a
empty ~rfi \ (bx \ b)`},
		// The ~ bounds unswapped.
		{sp, `let rec a = po | coe | (a ; a) | ax and ax = fr | po | a
let c = ~a | rfe+
acyclic co | sw | (c \ c)`},
		// A group nothing reads, whose abstract iteration converges but
		// whose concrete one diverges wherever rf is not empty: dropping
		// it as dead would lose the error.
		{open[0], `let rec bad = ~bad & rf
acyclic po`},
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			m, err := cat.Compile("\"regression\"\n" + c.src + "\n")
			if err != nil {
				t.Fatal(err)
			}
			sameVerdicts(t, m, c.p, c.p.Test.Name)
		})
	}
}
