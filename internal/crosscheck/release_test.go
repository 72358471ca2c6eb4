package crosscheck_test

import (
	"context"
	"sync/atomic"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
)

// countReleases runs f with every bmc slot release counted: the releases
// of comparisons' shared slots, those that held an instance, and those of
// the slots of bmc deciders run alone. It also counts the comparisons'
// releases of their shared programs, and those that came without a
// shared slot release before them.
func countReleases(f func()) (shared, withInstance, alone, programs, early int64) {
	var s, w, a, p, e, pending atomic.Int64
	defer crosscheck.OnSlotRelease(func(sh, inst bool) {
		switch {
		case !sh:
			a.Add(1)
		case inst:
			s.Add(1)
			w.Add(1)
			pending.Add(1)
		default:
			s.Add(1)
			pending.Add(1)
		}
	})()
	defer crosscheck.OnProgramRelease(func() {
		p.Add(1)
		if pending.Add(-1) < 0 {
			e.Add(1)
		}
	})()
	f()
	return s.Load(), w.Load(), a.Load(), p.Load(), e.Load()
}

// TestComparisonReleasesOnce: each comparison releases its shared SAT
// slot exactly once, when it returns, whether it was canceled before any
// decider ran, by a decider, or inside the walk; and a comparison whose
// bmc deciders reach the instance from several goroutines at once
// releases it once too, after all of them, as does every bmc decider run
// alone. Each comparison then releases its shared program exactly once,
// after its slot, whose instance holds the program's traces. A second
// release of either would panic.
func TestComparisonReleasesOnce(t *testing.T) {
	shared, withInst, alone, programs, early := countReleases(func() { TestCompareCanceled(t) })
	if shared != 3 || alone != 0 {
		t.Errorf("three canceled comparisons: %d shared releases (%d with an instance), %d alone; want 3, 0", shared, withInst, alone)
	}
	if withInst != 1 {
		t.Errorf("three canceled comparisons released %d instances; want 1: only the one canceled by a decider ran the bmc deciders", withInst)
	}
	if programs != 3 || early != 0 {
		t.Errorf("three canceled comparisons: %d program releases, %d before their slot's; want 3, 0", programs, early)
	}

	shared, withInst, alone, programs, early = countReleases(func() { TestBMCDecidersConcurrentOnOneComparison(t) })
	if shared != 12 || withInst != 12 || alone != 36 {
		t.Errorf("twelve concurrent comparisons: %d shared releases, %d with an instance, %d alone; want 12, 12, 36", shared, withInst, alone)
	}
	if programs != 12 || early != 0 {
		t.Errorf("twelve concurrent comparisons: %d program releases, %d before their slot's; want 12, 0", programs, early)
	}
}

// escaping is a decider that keeps the comparison's context for later.
type escaping struct{ ctx *context.Context }

func (e escaping) Name() string { return "escaping" }
func (e escaping) Decide(ctx context.Context, _ *litmus.Test) (bool, error) {
	*e.ctx = ctx
	return false, nil
}

// TestBMCAfterComparisonRefused: a bmc decider run on the context of a
// comparison that has returned gets an error, not an answer from the
// released instance.
func TestBMCAfterComparisonRefused(t *testing.T) {
	test := onePPCTest(t)
	var kept context.Context
	pairs := []crosscheck.Pair{{A: crosscheck.BMC(bmc.SC), B: escaping{&kept}}}
	if _, err := crosscheck.ComparePairs(context.Background(), test, pairs...); err != nil {
		t.Fatal(err)
	}
	if _, err := crosscheck.BMC(bmc.TSO).Decide(kept, test); err == nil {
		t.Fatal("a bmc decider answered on a finished comparison's context")
	}
}
