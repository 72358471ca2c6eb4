package bmc_test

import (
	"context"
	"os"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/diy"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/multi"
	"herdcats/internal/sim"
)

// detourTest's Power verdict needs a composition inside Fig. 25's ppo
// fixpoint that no test of the small diy corpus needs: P1's R -data-> W
// -detour-> R -addr-> R orders its first read before its last only
// through ii;ci.
const detourTest = "../../testdata/litmus/mp+lwsync+data-detour-addr.litmus"

// deepCycles are diy cumulativity chains whose hb paths are longer than
// one squaring of star covers; the sampled 4- and 5-cycles have none.
var deepCycles = []string{
	"LwSyncdWW Rfe DpAddrdW Rfe DpAddrdW Rfe DpAddrdR Fre",
	"LwSyncdWW Rfe DpAddrdW Rfe DpAddrdW Rfe DpAddrdW Rfe DpAddrdR Fre",
}

// diyCorpus is a seeded diy PPC corpus shaped like the mining
// campaign's: every 2-cycle of the Power pool, then sampled 4- and
// 5-cycles, n tests in all.
func diyCorpus(t testing.TB, n int) []*litmus.Test {
	return diyCorpusOf(t, litmus.PPC, diy.PowerPool(), n)
}

// diyCorpusOf is diyCorpus for any dialect and edge pool.
func diyCorpusOf(t testing.TB, arch litmus.Arch, pool []diy.Edge, n int) []*litmus.Test {
	t.Helper()
	var out []*litmus.Test
	seen := map[string]bool{}
	emit := func(c diy.Cycle) bool {
		test, err := diy.Generate(arch, c)
		if err != nil || seen[test.Name] {
			return true // a cycle diy cannot lay out, or a re-draw
		}
		seen[test.Name] = true
		out = append(out, test)
		return len(out) < n
	}
	diy.Enumerate(pool, 2, 2, emit)
	if len(out) < n {
		diy.Sample(pool, []int{4, 5}, 1, emit)
	}
	if len(out) < n {
		t.Fatalf("diy corpus: %d tests, want %d", len(out), n)
	}
	return out
}

// TestAgainstSimulatorDiy widens TestAgainstSimulator from the catalogue
// to generated tests: on 300 diy PPC tests and the deep shapes above,
// SAT-reachability under SC, TSO, Power and PowerCAV must coincide with
// the enumerative simulator under the matching model (PowerCAV's is the
// multi-event model), and on 300 diy ARM tests under ARM with
// models.ARM. It pins the lowering of the cat models onto the circuit
// (static relations projected onto memory events, each let rec as a
// bounded pre-fixpoint), the early stop of star and the per-component
// acyclicity orders.
func TestAgainstSimulatorDiy(t *testing.T) {
	src, err := os.ReadFile(detourTest)
	if err != nil {
		t.Fatal(err)
	}
	corpus := append(diyCorpus(t, 300), litmus.MustParse(string(src)))
	for _, cy := range deepCycles {
		c, err := diy.ParseCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil {
			t.Fatalf("%s: %v", cy, err)
		}
		corpus = append(corpus, test)
	}
	armCorpus := diyCorpusOf(t, litmus.ARM, diy.ARMPool(), 300)
	checkers := []struct {
		id     bmc.ModelID
		ref    sim.Checker
		corpus []*litmus.Test
	}{
		{bmc.SC, models.SC, corpus},
		{bmc.TSO, models.TSO, corpus},
		{bmc.Power, models.Power, corpus},
		{bmc.PowerCAV, multi.Model{}, corpus},
		{bmc.ARM, models.ARM, armCorpus},
	}
	for _, ck := range checkers {
		ck := ck
		t.Run(ck.id.String(), func(t *testing.T) {
			for _, test := range ck.corpus {
				inst, err := bmc.Encode(test, ck.id)
				if err != nil {
					t.Fatalf("%s: encode: %v", test.Name, err)
				}
				out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: ck.ref})
				if err != nil {
					t.Fatalf("%s: simulate: %v", test.Name, err)
				}
				if got := inst.Solve(); got != out.Allowed() {
					t.Errorf("%s under %s: BMC=%v simulator=%v", test.Name, ck.id, got, out.Allowed())
				}
			}
		})
	}
}
