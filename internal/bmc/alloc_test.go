package bmc_test

import (
	"os"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/diy"
	"herdcats/internal/litmus"
)

// TestBMCEncodeAllocsCeiling is the bench-smoke guard on what one SAT
// encoding costs the allocator: the Power encode of a fixed diy 5-cycle
// must allocate no more than measured once the solver carved its clauses
// from chunks and the circuit its matrices from a slab (go1.24: 496, with
// every encode on fresh storage, as none is released here; 833 once a
// relation matrix became one flat slice, 910 with a slice per row, 929
// once gates were
// hash-consed and AddClause stopped building a map per clause, 30950
// before, when every or gate and every clause made a map). Gated on
// BENCH_ENUM_OUT like the other bench asserts.
func TestBMCEncodeAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the BMC encode allocation ceiling check")
	}
	c, err := diy.ParseCycle("PodWW Rfe DpAddrdR PodRR Fre")
	if err != nil {
		t.Fatal(err)
	}
	test, err := diy.Generate(litmus.PPC, c)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := bmc.Encode(test, bmc.Power); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 496
	t.Logf("Power encode of %s: %.0f allocs/op (ceiling %d)", test.Name, allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Power encode of %s: %.0f allocs/op, ceiling %d", test.Name, allocs, ceiling)
	}
}
