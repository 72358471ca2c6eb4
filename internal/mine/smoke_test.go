package mine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/obs"
)

// smokePairs is the mine-smoke workload: six expected agreements across
// three engines (simulator, SAT, cat compiler) that are fast enough to
// sweep hundreds of tests under -race in seconds. Its deciders are the
// ones crosscheck.Pairs mines with: cat models everywhere, the native
// Power only against its cat model.
func smokePairs() []crosscheck.Pair {
	catPower := crosscheck.MustCat("power")
	pairs := cheapPairs() // cat==bmc on SC and TSO, SC⊆TSO
	return append(pairs,
		crosscheck.Pair{A: catPower, B: crosscheck.BMC(bmc.Power), Rel: crosscheck.Equal,
			Why: "SAT encoding of power.cat equals the simulator"},
		crosscheck.Pair{A: crosscheck.Axiomatic(models.Power), B: catPower, Rel: crosscheck.Equal,
			Why: "the Fig. 38 cat model is the native Power model"},
		crosscheck.Pair{A: catPower, B: crosscheck.MustCat("power-nodetour"), Rel: crosscheck.Subset,
			Why: "the static ppo is weaker than the full one"},
	)
}

// TestMineSmoke is the `make mine-smoke` job: a bounded, fixed-seed
// campaign that must sweep at least 500 generated tests across the smoke
// pair table with zero disagreements and zero decider errors, then prove
// the resume path by restarting over the same journal and re-processing
// the whole corpus from store hits alone. With BENCH_MINE_OUT set it also
// records the mining throughput.
func TestMineSmoke(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "state", "corpus.jsonl")
	pairs := smokePairs()
	if len(pairs) < 3 {
		t.Fatalf("smoke table has %d pairs, want >= 3", len(pairs))
	}
	cfg := Config{
		Arch:          litmus.PPC,
		ExhaustiveMax: 3,
		SampleSizes:   []int{4},
		Seed:          0xC0FFEE,
		MaxTests:      520,
		Pairs:         pairs,
		OutDir:        dir,
	}

	store, err := OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.Reg = obs.NewRegistry()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tests < 500 {
		t.Fatalf("swept %d tests, want >= 500", sum.Tests)
	}
	if sum.Disagreements != 0 || sum.Witnesses != 0 {
		t.Fatalf("smoke sweep found disagreements: %+v", sum)
	}
	if sum.DeciderErrors != 0 {
		t.Fatalf("smoke sweep hit decider errors: %+v", sum)
	}
	if sum.Agreements != sum.PairsChecked || sum.PairsChecked < sum.Tests*len(pairs) {
		t.Fatalf("pair accounting off: %+v (pairs=%d)", sum, len(pairs))
	}
	if sum.CorpusSize != sum.Tests {
		t.Fatalf("journal holds %d records for %d tests", sum.CorpusSize, sum.Tests)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh miner over the replayed journal must re-derive the
	// same corpus and serve every verdict from the store.
	store2, err := OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg.Store = store2
	cfg.Reg = obs.NewRegistry()
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := m2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum2.ResumeHits == 0 {
		t.Fatal("restart produced no resume hits")
	}
	if sum2.Tests != sum.Tests || sum2.ResumeHits != sum2.Tests || sum2.Checked != 0 {
		t.Fatalf("restart recomputed instead of resuming: first %+v then %+v", sum, sum2)
	}
	if sum2.PairsChecked != 0 {
		t.Fatalf("restart ran %d pair checks, want 0", sum2.PairsChecked)
	}

	if out := os.Getenv("BENCH_MINE_OUT"); out != "" {
		elapsed := sum.ElapsedMS
		if elapsed <= 0 {
			elapsed = 1
		}
		bench := map[string]any{
			"bench":                  "mine-smoke",
			"arch":                   string(cfg.Arch),
			"seed":                   cfg.Seed,
			"tests":                  sum.Tests,
			"pairs":                  len(pairs),
			"pairs_checked":          sum.PairsChecked,
			"elapsed_ms":             sum.ElapsedMS,
			"tests_per_sec":          float64(sum.Tests) * 1000 / float64(elapsed),
			"resume_hits_on_restart": sum2.ResumeHits,
			"resume_elapsed_ms":      sum2.ElapsedMS,
			"procs":                  runtime.GOMAXPROCS(0),
		}
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
