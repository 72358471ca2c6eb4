package hardware

import (
	"context"
	"slices"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// siliconReference transcribes the hand-written relation code the silicon
// program replaced, one predicate per named check: true iff the check
// holds.
var siliconReference = []struct {
	check string
	holds func(x *events.Execution) bool
}{
	// SC PER LOCATION with the read-read pairs of po-loc dropped.
	{"load-load-hazard", func(x *events.Execution) bool {
		poloc := x.POLoc.Diff(x.POLoc.Restrict(x.R, x.R))
		return poloc.Union(x.Com).Acyclic()
	}},
	// SC PER LOCATION with po-loc restricted to write-sourced pairs.
	{"read-write-hazard", func(x *events.Execution) bool {
		return x.POLoc.RestrictDomain(x.W).Union(x.Com).Acyclic()
	}},
	// No lb shape: read-to-write po and external rf are acyclic.
	{"lb", func(x *events.Execution) bool {
		return x.PO.Restrict(x.R, x.W).Union(x.RFE).Acyclic()
	}},
	{"rfi", func(x *events.Execution) bool { return x.RFI.IsEmpty() }},
}

// TestSiliconMatchesReference: on every candidate of the catalogue and of
// a seeded diy ARM corpus, each named check of the silicon program, run by
// one evaluator over the whole corpus, holds exactly where its reference
// transcription does; and each check both holds and fails somewhere.
func TestSiliconMatchesReference(t *testing.T) {
	var tests []*litmus.Test
	diy.Sample(diy.ARMPool(), []int{3, 4, 5, 6}, 7, func(c diy.Cycle) bool {
		if test, err := diy.Generate(litmus.ARM, c); err == nil {
			tests = append(tests, test)
		}
		return len(tests) < 80
	})
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Test())
	}
	ev := silicon.NewEvaluator()
	holds := make([]int, len(siliconReference))
	candidates := 0
	for _, test := range tests {
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			candidates++
			res := ev.Check(c.X)
			if res.Err != nil {
				t.Fatalf("%s: %v", test.Name, res.Err)
			}
			for i, ref := range siliconReference {
				want := ref.holds(c.X)
				if got := !slices.Contains(res.FailedChecks, ref.check); got != want {
					t.Fatalf("%s: %s holds = %v, reference %v\n%s", test.Name, ref.check, got, want, c.X)
				}
				if want {
					holds[i]++
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d candidates of %d tests", candidates, len(tests))
	for i, ref := range siliconReference {
		if holds[i] == 0 || holds[i] == candidates {
			t.Errorf("%s holds on %d of %d candidates: the corpus does not tell it apart", ref.check, holds[i], candidates)
		}
	}
}

// TestLBOnlyMatchesSilicon: on every candidate of the catalogue, the
// restriction-only program fails exactly the lb checks the whole silicon
// program fails, so a candidate the base model allows is restricted as
// it was when the whole program ran on it.
func TestLBOnlyMatchesSilicon(t *testing.T) {
	whole, lb := silicon.NewEvaluator(), lbOnly.NewEvaluator()
	restricted := 0
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			want := slices.DeleteFunc(slices.Clone(whole.Check(c.X).FailedChecks), func(check string) bool {
				return check != "lb" && check != "rfi"
			})
			if got := lb.Check(c.X).FailedChecks; !slices.Equal(got, want) {
				t.Fatalf("%s: lbOnly fails %v, silicon %v", e.Name, got, want)
			}
			if slices.Contains(want, "lb") {
				restricted++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if restricted == 0 {
		t.Error("no catalogue candidate fails lb: the corpus does not tell the programs apart")
	}
}
