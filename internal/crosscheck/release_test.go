package crosscheck_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/crosscheck"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
)

// releases counts scope releases: the comparisons' and, of those, the
// ones that held an instance and a program; the private scopes' of
// deciders run alone; and the releases that let their instance go after
// their program.
type releases struct {
	shared, withInstance, withProgram, alone, misordered int
}

// countReleases runs f with every scope release counted.
func countReleases(f func()) releases {
	var (
		mu      sync.Mutex
		n       releases
		inst    bool
		program bool
	)
	defer crosscheck.OnScopeRelease(func(comparison bool, step string) {
		mu.Lock()
		defer mu.Unlock()
		switch step {
		case "instance":
			inst = true
			if program {
				n.misordered++
			}
		case "program":
			program = true
		case "end":
			if !comparison {
				n.alone++
			} else {
				n.shared++
				if inst {
					n.withInstance++
				}
				if program {
					n.withProgram++
				}
			}
			inst, program = false, false
		}
	})()
	f()
	return n
}

// TestComparisonReleasesOnce: each comparison releases its scope exactly
// once, when it returns, whether it was canceled before any decider ran,
// by a decider, or inside the walk; and a comparison whose bmc deciders
// reach the instance from several goroutines at once releases it once
// too, after all of them, as does every bmc decider run alone with its
// private scope. Inside the one release the instance goes first, then the
// program, whose traces it holds. A second release would panic.
func TestComparisonReleasesOnce(t *testing.T) {
	n := countReleases(func() { TestCompareCanceled(t) })
	if n.shared != 3 || n.alone != 0 {
		t.Errorf("three canceled comparisons: %d shared releases (%d with an instance), %d alone; want 3, 0", n.shared, n.withInstance, n.alone)
	}
	if n.withInstance != 1 {
		t.Errorf("three canceled comparisons released %d instances; want 1: only the one canceled by a decider ran the bmc deciders", n.withInstance)
	}
	if n.withProgram != 3 || n.misordered != 0 {
		t.Errorf("three canceled comparisons: %d program releases, %d instances released after their program; want 3, 0", n.withProgram, n.misordered)
	}

	n = countReleases(func() { TestBMCDecidersConcurrentOnOneComparison(t) })
	if n.shared != 12 || n.withInstance != 12 || n.alone != 36 {
		t.Errorf("twelve concurrent comparisons: %d shared releases, %d with an instance, %d alone; want 12, 12, 36", n.shared, n.withInstance, n.alone)
	}
	if n.withProgram != 12 || n.misordered != 0 {
		t.Errorf("twelve concurrent comparisons: %d program releases, %d instances released after their program; want 12, 0", n.withProgram, n.misordered)
	}
}

// escaping is a decider that keeps the comparison's context for later.
type escaping struct{ ctx *context.Context }

func (e escaping) Name() string { return "escaping" }
func (e escaping) Decide(ctx context.Context, _ *litmus.Test) (bool, error) {
	*e.ctx = ctx
	return false, nil
}

// TestDecidersAfterComparisonRefused: every decider run on the context of
// a comparison that has returned — a cat decider, the zoo's Power, the
// machine, the hardware and a bmc decider — gets the scope's one error,
// not an answer from the released program or instance.
func TestDecidersAfterComparisonRefused(t *testing.T) {
	test := onePPCTest(t)
	var kept context.Context
	pairs := []crosscheck.Pair{{A: crosscheck.BMC(bmc.SC), B: escaping{&kept}}}
	if _, err := crosscheck.ComparePairs(context.Background(), test, pairs...); err != nil {
		t.Fatal(err)
	}
	power7, _ := hardware.ByName("power7")
	for _, d := range []crosscheck.Decider{
		crosscheck.MustCat("power"),
		crosscheck.Axiomatic(models.Power),
		crosscheck.Operational(cat.MustBuiltin("power")),
		crosscheck.Hardware(power7),
		crosscheck.BMC(bmc.TSO),
	} {
		allowed, err := d.Decide(kept, test)
		if !errors.Is(err, crosscheck.ErrComparisonOver) || allowed {
			t.Errorf("%s on a finished comparison's context: allowed=%v, err=%v; want %v", d.Name(), allowed, err, crosscheck.ErrComparisonOver)
		}
	}
}
