package main

import (
	"context"
	"sort"
	"strings"
	"testing"

	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
	"herdcats/internal/mine"
)

// corpusOf renders every seeded input of a workload at --seconds 1.
func corpusOf(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	switch workload {
	case "cold-light":
		in, err := coldLightInputs(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		return corpusHash(append(append([]string{}, in.warm...), in.timed...))
	case "cold-heavy":
		in := coldHeavyInputs(seed, 1)
		return corpusHash(append(append([]string{}, in.warm...), in.timed...))
	case "warm-gw-batch":
		in, err := warmGWInputs(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		var plan strings.Builder
		for _, b := range append(append([][]int{}, in.warm...), in.timed...) {
			for _, i := range b {
				plan.WriteString(in.corpus[i][:8])
			}
		}
		return corpusHash(append(append([]string{}, in.corpus...), plan.String()))
	case "mine-ppc":
		// The tests the campaign itself cross-checked; its workers finish
		// them in any order, so the sources are hashed sorted.
		in := minePPCInputs(seed, 1)
		cfg := in.timed
		clock := newDecideClock(nil)
		cfg.Pairs = clockPairs(crosscheck.Pairs(litmus.PPC), clock)
		m, err := mine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var srcs []string
		for _, tt := range clock.checked() {
			srcs = append(srcs, tt.String())
		}
		if len(srcs) != cfg.MaxTests {
			t.Fatalf("campaign checked %d tests, want %d", len(srcs), cfg.MaxTests)
		}
		sort.Strings(srcs)
		return corpusHash(srcs)
	}
	t.Fatalf("unknown workload %s", workload)
	return ""
}

func TestSeedDeterminesCorpus(t *testing.T) {
	for _, w := range workloads {
		a, b := corpusOf(t, w, 7), corpusOf(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave corpora %s and %s", w, a, b)
		}
		if c := corpusOf(t, w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus %s", w, a)
		}
	}
}

// The ledger's exact counts are a function of the seed too: two traced
// replays of the same inputs agree on them.
func TestSeedDeterminesLedgerCounts(t *testing.T) {
	counts := []string{"exec.candidates_per_test", "sim.valid_ratio", "memo.hit_ratio"}
	ledger := func(workload string) map[string]float64 {
		var res *result
		var err error
		switch workload {
		case "cold-light", "cold-heavy":
			var in *coldInputs
			if workload == "cold-light" {
				if in, err = coldLightInputs(7, 1); err != nil {
					t.Fatal(err)
				}
				in.timed = in.timed[:60]
			} else {
				in = coldHeavyInputs(7, 1)
				in.timed = in.timed[:3]
			}
			in.warm = in.warm[:2]
			res, err = ledgerCold(workload, 7, in, t.TempDir())
		case "warm-gw-batch":
			var in *warmInputs
			if in, err = warmGWInputs(7, 1); err != nil {
				t.Fatal(err)
			}
			in.warm, in.timed = in.warm[:1], in.timed[:3]
			res, err = ledgerWarm(7, in, t.TempDir())
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%s: %d failed operations: %v", workload, res.failed, res.notes)
		}
		return res.metrics
	}
	want := map[string]float64{"cold-light": 0, "cold-heavy": 0, "warm-gw-batch": 1}
	for _, w := range []string{"cold-light", "cold-heavy", "warm-gw-batch"} {
		a, b := ledger(w), ledger(w)
		for _, c := range counts {
			if a[c] != b[c] {
				t.Errorf("%s: %s is %v then %v", w, c, a[c], b[c])
			}
		}
		if a["memo.hit_ratio"] != want[w] {
			t.Errorf("%s: memo.hit_ratio %v, want %v", w, a["memo.hit_ratio"], want[w])
		}
	}
}
