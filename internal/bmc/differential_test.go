package bmc_test

import (
	"context"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/diy"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/multi"
	"herdcats/internal/sim"
)

// detourTest's verdict needs a second round of the ppo unrolling, which
// no test of the small diy corpus does: P1's R -data-> W -detour-> R
// -addr-> R orders its first read before its last only through ii;ci.
const detourTest = `PPC mp+lwsync+data-detour-addr
{ 0:r1=z; 0:r3=y; 1:r1=y; 1:r2=x; 1:r4=z; 2:r2=x; }
 P0 | P1 | P2 ;
 li r6,1 | lwz r5,0(r1) | li r6,2 ;
 stw r6,0(r1) | xor r7,r5,r5 | stw r6,0(r2) ;
 lwsync | addi r7,r7,1 | ;
 stw r6,0(r3) | stw r7,0(r2) | ;
 | lwz r8,0(r2) | ;
 | xor r9,r8,r8 | ;
 | lwzx r10,r9,r4 | ;
exists (1:r5=1 /\ 1:r8=2 /\ 1:r10=0 /\ x=2)`

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
	t.Helper()
	var out []*litmus.Test
	seen := map[string]bool{}
	emit := func(c diy.Cycle) bool {
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil || seen[test.Name] {
			return true // a cycle diy cannot lay out, or a re-draw
		}
		seen[test.Name] = true
		out = append(out, test)
		return len(out) < n
	}
	diy.Enumerate(diy.PowerPool(), 2, 2, emit)
	if len(out) < n {
		diy.Sample(diy.PowerPool(), []int{4, 5}, 1, emit)
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
// multi-event model). It pins the encoder's shortcuts: the early stop
// of the ppo and star unrolling and the per-component acyclicity orders.
func TestAgainstSimulatorDiy(t *testing.T) {
	corpus := append(diyCorpus(t, 300), litmus.MustParse(detourTest))
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
	checkers := []struct {
		id  bmc.ModelID
		ref sim.Checker
	}{
		{bmc.SC, models.SC},
		{bmc.TSO, models.TSO},
		{bmc.Power, models.Power},
		{bmc.PowerCAV, multi.Model{}},
	}
	for _, ck := range checkers {
		ck := ck
		t.Run(ck.id.String(), func(t *testing.T) {
			for _, test := range corpus {
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
