package bmc_test

import (
	"context"
	"os"
	"slices"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// condVars returns the registers and locations a condition reads, each
// once, in the order the condition names them.
func condVars(c litmus.Cond) (regs []litmus.RegKey, locs []string) {
	var walk func(litmus.Cond)
	walk = func(c litmus.Cond) {
		switch c := c.(type) {
		case *litmus.AtomReg:
			if !slices.Contains(regs, c.Key) {
				regs = append(regs, c.Key)
			}
		case *litmus.AtomMem:
			if !slices.Contains(locs, c.Loc) {
				locs = append(locs, c.Loc)
			}
		case *litmus.And:
			walk(c.L)
			walk(c.R)
		case *litmus.Or:
			walk(c.L)
			walk(c.R)
		case *litmus.Not:
			walk(c.X)
		}
	}
	walk(c)
	return regs, locs
}

// stateCond is the conjunction pinning each of regs and locs to its value
// in s.
func stateCond(s *litmus.State, regs []litmus.RegKey, locs []string) litmus.Cond {
	var out litmus.Cond
	add := func(a litmus.Cond) {
		if out == nil {
			out = a
		} else {
			out = &litmus.And{L: out, R: a}
		}
	}
	for _, k := range regs {
		add(&litmus.AtomReg{Key: k, Val: s.Regs[k]})
	}
	for _, l := range locs {
		add(&litmus.AtomMem{Loc: l, Val: s.Mem[l]})
	}
	return out
}

// TestEveryReachableState widens the BMC differentials from each test's
// own condition, which most of their tests forbid, to every final state
// the test reaches. For each distinct final state some enumerated
// candidate reaches, restricted to the condition's variables, the SAT
// encoding of "exists (that state)" must be satisfiable exactly when some
// candidate valid under the matching cat model reaches it, so allowed and
// forbidden states are checked alike. It runs the catalogue, the detour
// test and 100 diy PPC tests under SC and TSO, and those not of the ARM
// dialect under Power (Power reads its own dialect's fences, as in
// TestAgainstSimulator).
func TestEveryReachableState(t *testing.T) {
	var corpus []*litmus.Test
	for _, e := range catalog.Tests() {
		corpus = append(corpus, e.Test())
	}
	src, err := os.ReadFile(detourTest)
	if err != nil {
		t.Fatal(err)
	}
	corpus = append(corpus, litmus.MustParse(string(src)))
	corpus = append(corpus, diyCorpus(t, 100)...)
	matching := []struct {
		id  bmc.ModelID
		cat string
	}{{bmc.SC, "sc"}, {bmc.TSO, "tso"}, {bmc.Power, "power"}}
	states, allowed := 0, 0
	for _, test := range corpus {
		if test.Cond == nil {
			continue
		}
		regs, locs := condVars(test.Cond)
		var ids []bmc.ModelID
		var evs []core.Checker
		for _, m := range matching {
			if m.id == bmc.Power && test.Arch == litmus.ARM {
				continue
			}
			ids = append(ids, m.id)
			evs = append(evs, cat.MustBuiltin(m.cat).NewEvaluator())
		}
		// Per distinct state, in order of first reach: its condition, and
		// whether each model admits a candidate reaching it.
		var keys []string
		var conds []litmus.Cond
		var valid [][]bool
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{Deferred: true}, func(c *exec.Candidate) bool {
			key := c.State.Key(test.Cond)
			i := slices.Index(keys, key)
			if i < 0 {
				i = len(keys)
				keys = append(keys, key)
				conds = append(conds, stateCond(c.State, regs, locs))
				valid = append(valid, make([]bool, len(ids)))
			}
			for k, ev := range evs {
				res := ev.Check(c.X)
				if res.Err != nil {
					t.Fatalf("%s under %s: %v", test.Name, ids[k], res.Err)
				}
				valid[i][k] = valid[i][k] || res.Valid
			}
			return true
		})
		p.Release()
		for _, ev := range evs {
			core.Release(ev)
		}
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for i, cond := range conds {
			reach := *test
			reach.Quant, reach.Cond = litmus.Exists, cond
			for k, id := range ids {
				inst, err := bmc.Encode(&reach, id)
				if err != nil {
					t.Fatalf("%s, exists (%s): encode under %s: %v", test.Name, cond, id, err)
				}
				if got := inst.Solve(); got != valid[i][k] {
					t.Errorf("%s, exists (%s) under %s: BMC=%v, cat=%v", test.Name, cond, id, got, valid[i][k])
				}
				inst.Release()
				states++
				if valid[i][k] {
					allowed++
				}
			}
		}
	}
	if allowed == 0 || allowed == states {
		t.Fatalf("%d of %d states allowed: the corpus checks only one verdict", allowed, states)
	}
	t.Logf("%d tests, %d (state, model) pairs, %d allowed", len(corpus), states, allowed)
}
