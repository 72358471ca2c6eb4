package memo_test

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
)

// lightCorpus is n distinct diy PPC tests of the cycle lengths herdd's
// cold-light benchmark sends (3 to 5), drawn from the seeded sampler.
func lightCorpus(t *testing.T, seed uint64, n int) []*litmus.Test {
	t.Helper()
	seen := map[string]bool{}
	var tests []*litmus.Test
	diy.Sample(diy.PowerPool(), []int{3, 4, 5}, seed, func(c diy.Cycle) bool {
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil || seen[test.String()] {
			return true
		}
		seen[test.String()] = true
		tests = append(tests, test)
		return len(tests) < n
	})
	if len(tests) < n {
		t.Fatalf("sampler exhausted after %d of %d tests", len(tests), n)
	}
	return tests
}

// TestColdRunBytesCeiling is the bench-smoke guard on the bytes a verdict
// cache miss allocates as herdd serves it: a cache with herdd's defaults
// (4096 entries, sequential enumeration) runs 200 distinct light diy PPC
// tests under cat Power and herdd's 30 s budget, every one a miss, and
// must allocate per miss no more than measured once a compiled test's
// stage-1 storage outlived the test (go1.24: 13–19 KB; 67.5 KB when each
// miss built its traces and skeletons in fresh storage). The figure is
// TotalAlloc over a pass on a fresh cache after a warm-up pass on
// another; it moves by a few KB as the collector empties the pools, so
// the ceiling is about 10% above the measured figures. Gated on
// BENCH_ENUM_OUT like the other bench asserts.
func TestColdRunBytesCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the cold-run bytes ceiling check")
	}
	tests := lightCorpus(t, 1, 200)
	power := cat.MustBuiltin("power")
	budget := exec.Budget{Timeout: 30 * time.Second}
	pass := func() {
		c := memo.NewWithOptions(4096, memo.Options{Workers: 1})
		for _, test := range tests {
			if _, hit, err := c.Run(context.Background(), test, power, budget); err != nil || hit {
				t.Fatalf("%s: hit=%v err=%v, want a miss", test.Name, hit, err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	perMiss := (after.TotalAlloc - before.TotalAlloc) / uint64(len(tests))
	const ceiling = 21_000
	t.Logf("%d light diy PPC misses: %d bytes/op (ceiling %d)", len(tests), perMiss, ceiling)
	if perMiss > ceiling {
		t.Errorf("%d light diy PPC misses: %d bytes/op, ceiling %d", len(tests), perMiss, ceiling)
	}
}
