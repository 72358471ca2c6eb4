package models_test

import (
	"slices"
	"testing"
	"time"

	"herdcats/internal/events"
	"herdcats/internal/models"
	"herdcats/internal/rel"
)

// scLike is a minimal architecture: ppo = po over memory, no fences,
// prop = ppo ∪ rf ∪ fr (the SC instance of Fig. 21).
type scLike struct{}

func (scLike) Name() string { return "sc-like" }
func (scLike) PPO(x *events.Execution, _ *rel.Arena) (rel.Rel, error) {
	return x.PO.Restrict(x.M, x.M), nil
}
func (scLike) Fences(x *events.Execution, _ *rel.Arena) rel.Rel { return rel.New(x.N()) }
func (a scLike) Prop(x *events.Execution, ppo, _ rel.Rel, _ *rel.Arena) rel.Rel {
	return ppo.Union(x.MemRF()).Union(x.FR)
}

// mpExecution builds the forbidden-under-SC mp data-flow of Fig. 4.
func mpExecution() *events.Execution {
	x := events.NewExecution(6)
	x.Events = []events.Event{
		{ID: 0, Tid: events.InitTid, PC: -1, Kind: events.MemWrite, Loc: "x"},
		{ID: 1, Tid: events.InitTid, PC: -1, Kind: events.MemWrite, Loc: "y"},
		{ID: 2, Tid: 0, PC: 0, Kind: events.MemWrite, Loc: "x", Val: 1},
		{ID: 3, Tid: 0, PC: 1, Kind: events.MemWrite, Loc: "y", Val: 1},
		{ID: 4, Tid: 1, PC: 0, Kind: events.MemRead, Loc: "y", Val: 1},
		{ID: 5, Tid: 1, PC: 1, Kind: events.MemRead, Loc: "x", Val: 0},
	}
	x.PO.Add(2, 3)
	x.PO.Add(4, 5)
	x.RF.Add(3, 4)
	x.RF.Add(0, 5)
	x.CO.Add(0, 2)
	x.CO.Add(1, 3)
	x.Derive()
	return x
}

// coWWExecution: two same-location writes po- and co-opposed.
func coWWExecution() *events.Execution {
	x := events.NewExecution(3)
	x.Events = []events.Event{
		{ID: 0, Tid: events.InitTid, PC: -1, Kind: events.MemWrite, Loc: "x"},
		{ID: 1, Tid: 0, PC: 0, Kind: events.MemWrite, Loc: "x", Val: 1},
		{ID: 2, Tid: 0, PC: 1, Kind: events.MemWrite, Loc: "x", Val: 2},
	}
	x.PO.Add(1, 2)
	x.CO.Add(0, 1)
	x.CO.Add(0, 2)
	x.CO.Add(2, 1) // contradicts po
	x.Derive()
	return x
}

func TestCheckClassifiesMP(t *testing.T) {
	res := models.Check(scLike{}, mpExecution(), models.Options{}, nil)
	if res.Valid {
		t.Fatal("mp's forbidden data-flow should be invalid under the SC instance")
	}
	if !slices.Contains(res.FailedChecks, "OBSERVATION") {
		t.Errorf("expected OBSERVATION among failures, got %v", res.FailedChecks)
	}
	if slices.Contains(res.FailedChecks, "SC PER LOCATION") || slices.Contains(res.FailedChecks, "NO THIN AIR") {
		t.Errorf("unexpected failures: %v", res.FailedChecks)
	}
}

func TestCheckCoWW(t *testing.T) {
	res := models.Check(scLike{}, coWWExecution(), models.Options{}, nil)
	if res.Valid || !slices.Contains(res.FailedChecks, "SC PER LOCATION") {
		t.Errorf("coWW should fail SC PER LOCATION: %v", res.FailedChecks)
	}
	// Load-load hazard option does not rescue a write-write hazard.
	res = models.Check(scLike{}, coWWExecution(), models.Options{AllowLoadLoadHazard: true}, nil)
	if !slices.Contains(res.FailedChecks, "SC PER LOCATION") {
		t.Errorf("llh must not allow coWW: %v", res.FailedChecks)
	}
}

func TestWeakPropagation(t *testing.T) {
	// A 2+2w-style co/prop cycle of length four fails acyclic(co ∪ prop)
	// but passes irreflexive(prop ; co) when prop pairs alternate with co.
	x := events.NewExecution(6)
	x.Events = []events.Event{
		{ID: 0, Tid: events.InitTid, PC: -1, Kind: events.MemWrite, Loc: "x"},
		{ID: 1, Tid: events.InitTid, PC: -1, Kind: events.MemWrite, Loc: "y"},
		{ID: 2, Tid: 0, PC: 0, Kind: events.MemWrite, Loc: "x", Val: 2},
		{ID: 3, Tid: 0, PC: 1, Kind: events.MemWrite, Loc: "y", Val: 1},
		{ID: 4, Tid: 1, PC: 0, Kind: events.MemWrite, Loc: "y", Val: 2},
		{ID: 5, Tid: 1, PC: 1, Kind: events.MemWrite, Loc: "x", Val: 1},
	}
	x.PO.Add(2, 3)
	x.PO.Add(4, 5)
	x.CO.Add(0, 2)
	x.CO.Add(0, 5)
	x.CO.Add(5, 2) // x: 1 then 2
	x.CO.Add(1, 3)
	x.CO.Add(1, 4)
	x.CO.Add(3, 4) // y: 1 then 2
	x.Derive()

	// ppoArch: prop = po over memory (writes in program order propagate
	// in order), no com in prop.
	strict := models.Check(ppoPropArch{}, x, models.Options{}, nil)
	if strict.Valid || !slices.Contains(strict.FailedChecks, "PROPAGATION") {
		t.Errorf("2+2w shape should fail PROPAGATION: %v", strict.FailedChecks)
	}
	weak := models.Check(ppoPropArch{}, x, models.Options{WeakPropagation: true}, nil)
	if !weak.Valid {
		t.Errorf("C++ R-A weakening should admit the 2+2w shape: %v", weak.FailedChecks)
	}
}

type ppoPropArch struct{ scLike }

func (a ppoPropArch) Prop(x *events.Execution, _, _ rel.Rel, _ *rel.Arena) rel.Rel {
	return x.PO.Restrict(x.M, x.M)
}

func TestAxiomStrings(t *testing.T) {
	want := map[models.Axiom]string{
		models.SCPerLocation: "SC PER LOCATION",
		models.NoThinAir:     "NO THIN AIR",
		models.Observation:   "OBSERVATION",
		models.Propagation:   "PROPAGATION",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%v.String() = %q, want %q", a, a.String(), s)
		}
	}
}

// aliasedFixpoint runs models.PPOFixpoint over two-element seeds with an
// arena whose fifth register, the loop's scratch relation, is the seed
// ci0 itself: the aliasing a relation handed back to the arena while a
// caller still uses it produces. Each round then rewrites a seed, and the
// iteration cycles instead of growing to a fixpoint.
func aliasedFixpoint() error {
	ii0, ci0, cc0 := rel.New(2), rel.FromPairs(2, [][2]int{{1, 0}}), rel.FromPairs(2, [][2]int{{0, 0}})
	ar := rel.NewArena()
	ar.Get(2) // fixes the arena's universe
	ar.Put(ci0)
	for range 4 {
		ar.Put(rel.New(2))
	}
	_, _, err := models.PPOFixpoint(ii0, ci0, cc0, ar)
	return err
}

// aliasedPPO is scLike with its ppo taken from the aliased fixpoint.
type aliasedPPO struct{ scLike }

func (aliasedPPO) PPO(*events.Execution, *rel.Arena) (rel.Rel, error) {
	return rel.Rel{}, aliasedFixpoint()
}

// TestPPOFixpointCapped: with a register aliasing a seed, the ppo
// fixpoint stops at its round cap with an error instead of spinning, and
// the zoo evaluator reports that error as Result.Err.
func TestPPOFixpointCapped(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- aliasedFixpoint() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("the aliased fixpoint converged: the test no longer reaches the round cap")
		}
		t.Log(err)
	case <-time.After(30 * time.Second):
		t.Fatal("the aliased fixpoint still runs after 30s: it has no round cap")
	}
	res := models.Model{Arch: aliasedPPO{}}.NewEvaluator().Check(mpExecution())
	if res.Err == nil || res.Valid || len(res.FailedChecks) != 0 {
		t.Fatalf("zoo evaluator over the aliased fixpoint: %+v, want Result.Err alone", res)
	}
}
