package models_test

import (
	"context"
	"slices"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

// TestFigureVerdicts reproduces the allowed/forbidden verdict of every
// litmus test drawn from the paper's figures (the catalog), for every model
// the paper makes a claim about. This is the figure-level reproduction of
// Sec. 4, 6 and 8.
func TestFigureVerdicts(t *testing.T) {
	for _, e := range catalog.Tests() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			test, err := litmus.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for name, wantAllowed := range e.Expect {
				m, ok := models.ByName(name)
				if !ok {
					t.Fatalf("unknown model %q", name)
				}
				out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: m})
				if err != nil {
					t.Fatalf("%s: simulate: %v", name, err)
				}
				if out.Allowed() != wantAllowed {
					t.Errorf("%s (%s): allowed = %v, want %v\n%s",
						name, e.Figure, out.Allowed(), wantAllowed, out)
				}
			}
		})
	}
}

// TestCandidateCounts sanity-checks the enumeration on mp: 2 reads over the
// domain {0,1} with one co choice per location.
func TestCandidateCounts(t *testing.T) {
	e, _ := catalog.ByName("mp")
	cands, err := exec.Candidates(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for mp")
	}
	// mp has 4 data-flow choices (each read from init or the unique write).
	if len(cands) != 4 {
		t.Errorf("mp candidates = %d, want 4", len(cands))
	}
	// SC allows exactly 3 of them (all but the r5=1, r6=0 one).
	valid := 0
	for _, c := range cands {
		if models.SC.Check(c.X).Valid {
			valid++
		}
	}
	if valid != 3 {
		t.Errorf("SC-valid mp candidates = %d, want 3", valid)
	}
}

// TestSCEquivalence checks Lemma 4.1 for SC: our four-axiom instance equals
// the direct characterisation acyclic(po ∪ com) on every candidate
// execution of the whole catalogue.
func TestSCEquivalence(t *testing.T) {
	forEachCandidate(t, func(t *testing.T, name string, c *exec.Candidate) {
		direct := c.X.PO.Restrict(c.X.M, c.X.M).Union(c.X.Com).Acyclic()
		got := models.SC.Check(c.X).Valid
		if got != direct {
			t.Errorf("%s: SC axioms = %v, direct acyclic(po ∪ com) = %v", name, got, direct)
		}
	})
}

// TestTSOEquivalence checks Lemma 4.1 for TSO: our instance equals
// acyclic(ppo ∪ co ∪ rfe ∪ fr ∪ fences) plus SC PER LOCATION
// (the uniproc requirement of the Sparc definition).
func TestTSOEquivalence(t *testing.T) {
	forEachCandidate(t, func(t *testing.T, name string, c *exec.Candidate) {
		po := c.X.PO.Restrict(c.X.M, c.X.M)
		ppo := po.Diff(po.Restrict(c.X.W, c.X.R))
		fences := c.X.Fences("mfence")
		direct := ppo.Union(c.X.CO).Union(c.X.RFE).Union(c.X.FR).Union(fences).Acyclic() &&
			c.X.POLoc.Union(c.X.Com).Acyclic()
		got := models.TSO.Check(c.X).Valid
		if got != direct {
			t.Errorf("%s: TSO axioms = %v, direct characterisation = %v", name, got, direct)
		}
	})
}

// TestModelStrengthOrder checks the expected inclusions between models on
// every candidate: SC-valid ⇒ TSO-valid ⇒ Power-valid, and
// Power-ARM-valid ⇒ ARM-valid ⇒ ARM-llh-valid (each weakening only adds
// behaviours).
func TestModelStrengthOrder(t *testing.T) {
	// SC is the strongest model whatever the fences; the ARM variants form
	// a weakening chain. TSO ⇒ Power only holds for programs without
	// Power-specific fences (TSO does not interpret sync/lwsync), so that
	// comparison is restricted to fence-free executions.
	forEachCandidate(t, func(t *testing.T, name string, c *exec.Candidate) {
		chains := [][]models.Model{
			{models.SC, models.TSO},
			{models.SC, models.Power},
			{models.SC, models.ARM},
			{models.PowerARM, models.ARM, models.ARMllh},
		}
		if len(c.X.FenceRel) == 0 {
			chains = append(chains, []models.Model{models.TSO, models.Power})
		}
		for _, chain := range chains {
			for i := 0; i+1 < len(chain); i++ {
				strong, weak := chain[i], chain[i+1]
				if strong.Check(c.X).Valid && !weak.Check(c.X).Valid {
					t.Errorf("%s: valid under %s but invalid under weaker %s",
						name, strong.Name(), weak.Name())
				}
			}
		}
	})
}

// TestFailedAxiomsClassification checks that invalid executions report at
// least one failed axiom and valid ones report none.
func TestFailedAxiomsClassification(t *testing.T) {
	forEachCandidate(t, func(t *testing.T, name string, c *exec.Candidate) {
		res := models.Power.Check(c.X)
		if res.Valid != (len(res.FailedChecks) == 0) {
			t.Errorf("%s: Valid=%v but FailedChecks=%v", name, res.Valid, res.FailedChecks)
		}
	})
}

// TestRdwDetour checks the rdw (Fig. 27) and detour (Fig. 28) ingredients
// of the Power ppo on hand-built tests.
func TestRdwDetour(t *testing.T) {
	// rdw: T0: Wx=2 ; T1: Rx=1 (from T2's Wx=1), Rx=2 (from T0), with T2
	// providing Wx=1 co-before Wx=2. The two T1 reads read different
	// external writes.
	src := `PPC rdw
{ 0:r1=x; 1:r1=x; 2:r1=x; }
 P0 | P1 | P2 ;
 li r2,2 | lwz r2,0(r1) | li r2,1 ;
 stw r2,0(r1) | lwz r3,0(r1) | stw r2,0(r1) ;
exists (1:r2=1 /\ 1:r3=2 /\ x=2)`
	found := false
	mustEnumerate(t, src, func(c *exec.Candidate) {
		rdw := c.X.POLoc.Inter(c.X.FRE.Seq(c.X.RFE))
		if !rdw.IsEmpty() {
			found = true
		}
	})
	if !found {
		t.Error("no candidate of the rdw test exhibits the rdw relation")
	}

	// detour: T1 writes x then reads T0's co-later write.
	src = `PPC detour
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,2 | li r2,1 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 | lwz r3,0(r1) ;
exists (1:r3=2 /\ x=2)`
	found = false
	mustEnumerate(t, src, func(c *exec.Candidate) {
		detour := c.X.POLoc.Inter(c.X.COE.Seq(c.X.RFE))
		if !detour.IsEmpty() {
			found = true
		}
	})
	if !found {
		t.Error("no candidate of the detour test exhibits the detour relation")
	}
}

// TestCppRAWeakPropagation: the C++ R-A model weakens PROPAGATION to
// irreflexive(prop ; co); 2+2w (a co/prop cycle of length 4) must therefore
// be allowed under C++ R-A while SC forbids it.
func TestCppRAWeakPropagation(t *testing.T) {
	e, _ := catalog.ByName("2+2w")
	out, err := sim.Simulate(context.Background(), sim.Request{Test: e.Test(), Checker: models.CppRA})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Allowed() {
		t.Errorf("2+2w should be allowed under C++ R-A (HBVSMO is only an irreflexivity)")
	}
	// But mp stays forbidden (release/acquire message passing works).
	e, _ = catalog.ByName("mp")
	out, err = sim.Simulate(context.Background(), sim.Request{Test: e.Test(), Checker: models.CppRA})
	if err != nil {
		t.Fatal(err)
	}
	if out.Allowed() {
		t.Errorf("mp must be forbidden under C++ R-A")
	}
}

// forEachCandidate runs fn on every candidate execution of every catalog test.
func forEachCandidate(t *testing.T, fn func(*testing.T, string, *exec.Candidate)) {
	t.Helper()
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatalf("%s: compile: %v", e.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			fn(t, e.Name, c)
			return !t.Failed() // stop early once failing
		})
		if err != nil {
			t.Fatalf("%s: enumerate: %v", e.Name, err)
		}
	}
}

func mustEnumerate(t *testing.T, src string, fn func(*exec.Candidate)) {
	t.Helper()
	p, err := exec.Compile(litmus.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool { fn(c); return true }); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsLoadLoadHazard exercises models.Options directly on coRR.
func TestOptionsLoadLoadHazard(t *testing.T) {
	e, _ := catalog.ByName("coRR")
	seenViolation := false
	scPerLocation := func(x *events.Execution, opts models.Options) bool {
		res := models.Check(models.SC.Arch, x, opts, nil)
		return !slices.Contains(res.FailedChecks, models.SCPerLocation.String())
	}
	mustEnumerate(t, e.Source, func(c *exec.Candidate) {
		strict := scPerLocation(c.X, models.Options{})
		loose := scPerLocation(c.X, models.Options{AllowLoadLoadHazard: true})
		if !strict && loose {
			seenViolation = true
		}
		if strict && !loose {
			t.Error("llh option must only weaken SC PER LOCATION")
		}
	})
	if !seenViolation {
		t.Error("coRR should have a candidate allowed only under llh")
	}
}
