// Package crosscheck_test validates the exported differential-comparison
// library on a generated corpus: every engine in the repository (native Go
// models, cat interpreter, operational machine, SAT-based model checker,
// multi-event checker, simulated hardware) is run through the same
// expected-agreement table the mining daemon sweeps, so the test and the
// daemon share one comparison implementation.
package crosscheck_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"herdcats/internal/core"
	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
)

// corpus builds a deterministic sample of generated Power tests: every
// length-3 cycle plus a slice of length-4 ones.
func corpus(t *testing.T, max4 int) []*litmus.Test {
	t.Helper()
	var tests []*litmus.Test
	count4 := 0
	diy.Enumerate(diy.PowerPool(), 3, 4, func(c diy.Cycle) bool {
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil {
			return true
		}
		if len(c) == 4 {
			count4++
			if count4%11 != 0 || count4/11 > max4 {
				return true // sample the length-4 space
			}
		}
		tests = append(tests, test)
		return true
	})
	if len(tests) < 100 {
		t.Fatalf("corpus too small: %d", len(tests))
	}
	return tests
}

// TestAllGeneratedSCForbidden: diy cycles are critical cycles — minimal SC
// violations — so no generated test's condition is SC-observable.
func TestAllGeneratedSCForbidden(t *testing.T) {
	sc := crosscheck.Axiomatic(models.SC)
	for _, test := range corpus(t, 80) {
		allowed, err := sc.Decide(context.Background(), test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if allowed {
			t.Errorf("%s: observable under SC\n%s", test.Name, test)
		}
	}
}

// TestPairsAgreeOnCorpus sweeps the full PPC expected-agreement table —
// the exact workload internal/mine runs continuously — over the sampled
// corpus: the Thm. 7.1 machine equivalence, the Fig. 38 cat model, the
// SAT encodings of SC/TSO/Power, the CAV12 inclusion, the model
// monotonicity inclusions and the hardware-soundness inclusion must all
// hold on every generated test.
func TestPairsAgreeOnCorpus(t *testing.T) {
	pairs := crosscheck.Pairs(litmus.PPC)
	if len(pairs) < 8 {
		t.Fatalf("PPC table has %d pairs, want the full zoo", len(pairs))
	}
	for _, test := range corpus(t, 15) {
		rep, err := crosscheck.ComparePairs(context.Background(), test, pairs...)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, e := range rep.Errors {
			t.Errorf("%s: decider %s failed: %s", test.Name, e.Decider, e.Err)
		}
		for _, d := range rep.Disagreements {
			t.Errorf("%s: %s (%s)\n%s", test.Name, d, d.Why, test)
		}
		if rep.Pairs != len(pairs) {
			t.Errorf("%s: evaluated %d/%d pairs", test.Name, rep.Pairs, len(pairs))
		}
	}
}

// TestARMPairsAgreeOnCorpus sweeps the ARM table (the cat ARM model and
// the SAT encoding of arm.cat against the native proposed-ARM model, SC
// and TSO against their encodings) over every length-3 diy ARM cycle.
func TestARMPairsAgreeOnCorpus(t *testing.T) {
	pairs := crosscheck.Pairs(litmus.ARM)
	n := 0
	diy.Enumerate(diy.ARMPool(), 3, 3, func(c diy.Cycle) bool {
		test, err := diy.Generate(litmus.ARM, c)
		if err != nil {
			return true
		}
		n++
		rep, err := crosscheck.ComparePairs(context.Background(), test, pairs...)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, e := range rep.Errors {
			t.Errorf("%s: decider %s failed: %s", test.Name, e.Decider, e.Err)
		}
		for _, d := range rep.Disagreements {
			t.Errorf("%s: %s (%s)\n%s", test.Name, d, d.Why, test)
		}
		return true
	})
	if n < 50 {
		t.Fatalf("ARM corpus too small: %d", n)
	}
}

// TestModelMonotonicityOnCorpus keeps the finer per-candidate refinement
// the whole-test Subset pairs cannot see: an SC-valid candidate execution
// stays valid under every weaker model, candidate by candidate. (The
// whole-test inclusions themselves are covered by the table above.)
func TestModelMonotonicityOnCorpus(t *testing.T) {
	for _, test := range corpus(t, 25) {
		for _, pair := range []struct {
			strong, weak models.Model
		}{
			{models.SC, models.TSO},
			{models.SC, models.Power},
			{models.SC, models.PowerStatic},
			{models.Power, models.PowerStatic},
		} {
			strong := crosscheck.Axiomatic(pair.strong)
			weak := crosscheck.Axiomatic(pair.weak)
			a, err := strong.Decide(context.Background(), test)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			b, err := weak.Decide(context.Background(), test)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			if a && !b {
				t.Errorf("%s: allowed under %s but not %s", test.Name, pair.strong.Name(), pair.weak.Name())
			}
		}
	}
}

// stub is a decider with a fixed verdict (or error), for exercising the
// report structure without real engines.
type stub struct {
	name    string
	allowed bool
	err     error
	calls   *int
}

func (s stub) Name() string { return s.name }
func (s stub) Decide(context.Context, *litmus.Test) (bool, error) {
	if s.calls != nil {
		*s.calls++
	}
	return s.allowed, s.err
}

func onePPCTest(t *testing.T) *litmus.Test {
	t.Helper()
	c, err := diy.ParseCycle("SyncdWW Rfe DpAddrdR Fre")
	if err != nil {
		t.Fatal(err)
	}
	test, err := diy.Generate(litmus.PPC, c)
	if err != nil {
		t.Fatal(err)
	}
	return test
}

// TestCompareReport: Compare runs each distinct decider once, reports the
// violated equality with both verdicts, and counts agreements.
func TestCompareReport(t *testing.T) {
	test := onePPCTest(t)
	callsA, callsB := 0, 0
	a := stub{name: "a", allowed: true, calls: &callsA}
	b := stub{name: "b", allowed: false, calls: &callsB}
	c := stub{name: "c", allowed: true}

	rep, err := crosscheck.Compare(context.Background(), test, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if callsA != 1 || callsB != 1 {
		t.Errorf("decider runs not deduplicated: a=%d b=%d", callsA, callsB)
	}
	if rep.Pairs != 3 || rep.Agreements != 1 || len(rep.Disagreements) != 2 {
		t.Fatalf("report = %d pairs, %d agreements, %d disagreements; want 3/1/2",
			rep.Pairs, rep.Agreements, len(rep.Disagreements))
	}
	d := rep.Disagreements[0]
	if d.Pair != "a==b" || !d.A.Allowed || d.B.Allowed {
		t.Errorf("disagreement = %+v, want a==b with a allowed", d)
	}
	if rep.Agreed() {
		t.Error("Agreed() on a disagreeing report")
	}
}

// TestCompareSubsetRelation: a Subset pair is violated only in the
// forbidden direction.
func TestCompareSubsetRelation(t *testing.T) {
	test := onePPCTest(t)
	strong := stub{name: "strong", allowed: false}
	weak := stub{name: "weak", allowed: true}

	// strong ⊆ weak with strong forbidden: satisfied whatever weak says.
	rep, err := crosscheck.ComparePairs(context.Background(), test,
		crosscheck.Pair{A: strong, B: weak, Rel: crosscheck.Subset})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agreed() || rep.Agreements != 1 {
		t.Errorf("forbidden ⊆ allowed should agree: %+v", rep)
	}

	// allowed ⊄ forbidden: violated.
	rep, err = crosscheck.ComparePairs(context.Background(), test,
		crosscheck.Pair{A: weak, B: strong, Rel: crosscheck.Subset})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agreed() || len(rep.Disagreements) != 1 {
		t.Errorf("allowed ⊆ forbidden should disagree: %+v", rep)
	}
}

// TestCompareDeciderError: an errored decider lands in Errors, its pairs
// are skipped, and the healthy pairs still evaluate.
func TestCompareDeciderError(t *testing.T) {
	test := onePPCTest(t)
	bad := stub{name: "bad", err: errors.New("boom")}
	okA := stub{name: "okA", allowed: true}
	okB := stub{name: "okB", allowed: true}

	rep, err := crosscheck.ComparePairs(context.Background(), test,
		crosscheck.Pair{A: bad, B: okA, Rel: crosscheck.Equal},
		crosscheck.Pair{A: okA, B: okB, Rel: crosscheck.Equal})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Decider != "bad" {
		t.Fatalf("errors = %+v, want bad", rep.Errors)
	}
	if rep.Pairs != 1 || rep.Agreements != 1 || len(rep.Disagreements) != 0 {
		t.Errorf("healthy pair not evaluated: %+v", rep)
	}
	if rep.Agreed() {
		t.Error("Agreed() despite a decider error")
	}

	// A checker that fails to evaluate fails its own decider in the
	// shared walk; the walk deciders beside it keep their standalone
	// verdicts.
	failing := crosscheck.Axiomatic(failingChecker{})
	pairs := append(crosscheck.Pairs(litmus.PPC), crosscheck.Pair{A: failing, B: crosscheck.MustCat("power")})
	rep, err = crosscheck.ComparePairs(context.Background(), test, pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Decider != failing.Name() || !strings.Contains(rep.Errors[0].Err, "diverged") {
		t.Fatalf("errors = %+v, want %s failing", rep.Errors, failing.Name())
	}
	deciders := map[string]crosscheck.Decider{}
	for _, p := range pairs {
		deciders[p.A.Name()], deciders[p.B.Name()] = p.A, p.B
	}
	for _, v := range rep.Verdicts {
		if v.Decider == failing.Name() {
			continue
		}
		allowed, err := deciders[v.Decider].Decide(context.Background(), test)
		if err != nil || allowed != v.Allowed {
			t.Errorf("%s beside a failing checker: %+v, alone %v (%v)", v.Decider, v, allowed, err)
		}
	}
}

// failingChecker fails to evaluate every candidate, like a cat model
// whose let rec diverges.
type failingChecker struct{}

func (failingChecker) Name() string { return "failing" }
func (failingChecker) Check(*events.Execution) core.Result {
	return core.Result{Err: errors.New("diverged")}
}

// flipped embeds a decider and overrides its Decide, flipping the answer;
// it keeps the embedded decider's name.
type flipped struct{ crosscheck.Decider }

func (f flipped) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	allowed, err := f.Decider.Decide(ctx, test)
	return !allowed, err
}

// TestCompareWrapperDecides: a wrapper around a walk decider is decided
// by its own Decide, never routed into the shared walk: its flipped
// answer is the one reported, beside the walk deciders of the table.
func TestCompareWrapperDecides(t *testing.T) {
	test := onePPCTest(t)
	catPower := crosscheck.MustCat("power")
	alone, err := catPower.Decide(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []crosscheck.Pair{{A: flipped{catPower}, B: crosscheck.MustCat("sc"), Rel: crosscheck.Subset}}
	pairs = append(pairs, crosscheck.Pairs(litmus.PPC)...) // cat:Power itself is named by the wrapper first
	rep, err := crosscheck.ComparePairs(context.Background(), test, pairs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Verdicts {
		if v.Decider == catPower.Name() && (v.Err != "" || v.Allowed == alone) {
			t.Fatalf("wrapped %s reported %+v, want the flipped %v", v.Decider, v, !alone)
		}
	}
}

// TestCompareCanceled: a canceled context surfaces as the returned error,
// not as a disagreement.
func TestCompareCanceled(t *testing.T) {
	test := onePPCTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := crosscheck.ComparePairs(ctx, test, crosscheck.Pairs(litmus.PPC)...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Canceled during the comparison: by a decider that runs before the
	// walk, and by a judge inside it.
	ctx, cancel = context.WithCancel(context.Background())
	pairs := append(crosscheck.Pairs(litmus.PPC), crosscheck.Pair{A: canceling{cancel}, B: crosscheck.MustCat("power")})
	if _, err := crosscheck.ComparePairs(ctx, test, pairs...); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled by a decider: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	pairs = append(crosscheck.Pairs(litmus.PPC), crosscheck.Pair{A: crosscheck.Axiomatic(canceling{cancel}), B: crosscheck.MustCat("power")})
	if _, err := crosscheck.ComparePairs(ctx, test, pairs...); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled in the walk: err = %v, want context.Canceled", err)
	}
}

// canceling cancels its context when asked to decide a test or to check a
// candidate.
type canceling struct{ cancel context.CancelFunc }

func (c canceling) Name() string { return "canceling" }
func (c canceling) Decide(context.Context, *litmus.Test) (bool, error) {
	c.cancel()
	return false, nil
}
func (c canceling) Check(*events.Execution) core.Result {
	c.cancel()
	return core.Result{}
}
