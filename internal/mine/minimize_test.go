package mine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
)

// lwsyncBroken wraps a decider and flips its verdict on any test whose
// source contains an lwsync — a deliberately planted model bug whose
// minimal witness is known by construction, so minimization can be tested
// end to end.
type lwsyncBroken struct{ inner crosscheck.Decider }

func (b lwsyncBroken) Name() string { return "broken:" + b.inner.Name() }

func (b lwsyncBroken) Decide(ctx context.Context, t *litmus.Test) (bool, error) {
	allowed, err := b.inner.Decide(ctx, t)
	if err != nil {
		return false, err
	}
	if strings.Contains(strings.ToLower(t.String()), "lwsync") {
		return !allowed, nil
	}
	return allowed, nil
}

// brokenPair pairs sim:Power with its lwsync-flipped double: the pair
// disagrees exactly on tests containing an lwsync.
func brokenPair() crosscheck.Pair {
	return crosscheck.Pair{
		A:   crosscheck.Axiomatic(models.Power),
		B:   lwsyncBroken{crosscheck.Axiomatic(models.Power)},
		Rel: crosscheck.Equal,
		Why: "test fixture: B flips the verdict on lwsync tests",
	}
}

func pairOracle(p crosscheck.Pair) Oracle {
	return func(ctx context.Context, t *litmus.Test) (bool, error) {
		a, err := p.A.Decide(ctx, t)
		if err != nil {
			return false, err
		}
		b, err := p.B.Decide(ctx, t)
		if err != nil {
			return false, err
		}
		return p.Violated(a, b), nil
	}
}

// TestMinimizeBrokenDecider plants the lwsync bug, seeds minimization with
// a 4-edge disagreeing cycle, and checks the shrinker lands exactly on the
// known minimal witness — deterministically.
func TestMinimizeBrokenDecider(t *testing.T) {
	seed, err := diy.ParseCycle("LwSyncdWW Rfe DpAddrdR Fre")
	if err != nil {
		t.Fatal(err)
	}
	oracle := pairOracle(brokenPair())

	min, test, steps, ok, err := Minimize(context.Background(), litmus.PPC, seed, oracle)
	if err != nil || !ok {
		t.Fatalf("Minimize: ok=%v err=%v", ok, err)
	}
	// The address dependency is irrelevant to the planted bug, so it is
	// weakened to plain program order (dropping the edge outright would
	// force all three locations equal, which diy rejects); the lwsync is
	// the bug trigger, so it must survive.
	if got := min.Name(); got != "LwSyncdWW+Rfe+PodRR+Fre" {
		t.Fatalf("minimized to %s, want LwSyncdWW+Rfe+PodRR+Fre", got)
	}
	if len(min) > 4 {
		t.Fatalf("witness has %d events, want <= 4", len(min))
	}
	if test == nil || !strings.Contains(strings.ToLower(test.String()), "lwsync") {
		t.Fatal("minimized test lost the lwsync that triggers the bug")
	}
	if steps < 3 {
		t.Fatalf("steps = %d: minimization must at least check the seed and both shrink attempts", steps)
	}

	min2, _, steps2, ok2, err := Minimize(context.Background(), litmus.PPC, seed, oracle)
	if err != nil || !ok2 {
		t.Fatalf("second Minimize: ok=%v err=%v", ok2, err)
	}
	if min2.Name() != min.Name() || steps2 != steps {
		t.Fatalf("minimization is not deterministic: %s/%d then %s/%d",
			min.Name(), steps, min2.Name(), steps2)
	}
}

// TestMinimizeNonReproducing: an oracle that never fires yields ok=false
// and the untouched input.
func TestMinimizeNonReproducing(t *testing.T) {
	seed, err := diy.ParseCycle("LwSyncdWW Rfe DpAddrdR Fre")
	if err != nil {
		t.Fatal(err)
	}
	never := func(context.Context, *litmus.Test) (bool, error) { return false, nil }
	min, _, steps, ok, err := Minimize(context.Background(), litmus.PPC, seed, never)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ok=true for a non-reproducing input")
	}
	if min.Name() != seed.Name() || steps != 1 {
		t.Fatalf("got %s after %d steps, want untouched input after 1", min.Name(), steps)
	}
}

// TestMinerEmitsWitness runs a whole campaign against the broken pair over
// a pool that contains the bug trigger, and checks every disagreement is
// minimized and lands on disk as a .litmus witness plus a schema'd JSON
// record.
func TestMinerEmitsWitness(t *testing.T) {
	var pool []diy.Edge
	for _, name := range []string{"LwSyncdWW", "Rfe", "DpAddrdR", "Fre"} {
		e, err := diy.ParseEdge(name)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, e)
	}
	out := t.TempDir()
	m, err := New(Config{
		Arch:          litmus.PPC,
		Pool:          pool,
		ExhaustiveMax: 4,
		Workers:       2,
		Pairs:         []crosscheck.Pair{brokenPair()},
		OutDir:        out,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Disagreements == 0 {
		t.Fatal("the planted bug produced no disagreement")
	}
	if sum.Witnesses != sum.Disagreements {
		t.Fatalf("witnesses %d != disagreements %d", sum.Witnesses, sum.Disagreements)
	}
	if sum.MinimizeSteps == 0 {
		t.Fatal("no minimization work recorded")
	}

	recs, err := filepath.Glob(filepath.Join(out, "discrepancies", "*.json"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no discrepancy records written (err=%v)", err)
	}
	sawMinimal := false
	for _, path := range recs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec Discrepancy
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rec.Schema != "mine/discrepancy/v1" {
			t.Fatalf("%s: schema %q", path, rec.Schema)
		}
		if rec.Events > 4 || rec.Events != strings.Count(rec.MinimizedCycle, "+")+1 {
			t.Fatalf("%s: events=%d cycle=%s", path, rec.Events, rec.MinimizedCycle)
		}
		if !strings.Contains(rec.MinimizedCycle, "LwSync") {
			t.Fatalf("%s: minimized witness %s lost the bug trigger", path, rec.MinimizedCycle)
		}
		if !strings.Contains(strings.ToLower(rec.Litmus), "lwsync") {
			t.Fatalf("%s: embedded litmus source lost the lwsync", path)
		}
		witness := strings.TrimSuffix(path, ".json") + ".litmus"
		if src, err := os.ReadFile(witness); err != nil || string(src) != rec.Litmus {
			t.Fatalf("%s: .litmus witness missing or diverges from record (err=%v)", witness, err)
		}
		if rec.MinimizedCycle == "LwSyncdWW+Rfe+PodRR+Fre" {
			sawMinimal = true
		}
	}
	if !sawMinimal {
		t.Fatal("no disagreement minimized to the known minimal witness LwSyncdWW+Rfe+PodRR+Fre")
	}
}

// programSpy records, per test, the programs its Decide calls would be
// handed by crosscheck.ProgramFor.
type programSpy struct {
	crosscheck.Decider
	mu   *sync.Mutex
	seen map[*litmus.Test]map[*exec.Program]bool
}

func (s programSpy) Decide(ctx context.Context, t *litmus.Test) (bool, error) {
	p, done, err := crosscheck.ProgramFor(ctx, t)
	if err != nil {
		return false, err
	}
	defer done()
	s.mu.Lock()
	if s.seen[t] == nil {
		s.seen[t] = map[*exec.Program]bool{}
	}
	s.seen[t][p] = true
	s.mu.Unlock()
	return s.Decider.Decide(ctx, t)
}

// TestMinimizeSharesProgram: the minimization oracle judges each candidate
// test with both sides of the pair over one compiled program, as the
// comparison that found the disagreement does.
func TestMinimizeSharesProgram(t *testing.T) {
	var pool []diy.Edge
	for _, name := range []string{"LwSyncdWW", "Rfe", "DpAddrdR", "Fre"} {
		e, err := diy.ParseEdge(name)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, e)
	}
	mu, seen := &sync.Mutex{}, map[*litmus.Test]map[*exec.Program]bool{}
	pair := brokenPair()
	pair.A, pair.B = programSpy{pair.A, mu, seen}, programSpy{pair.B, mu, seen}
	m, err := New(Config{
		Arch:          litmus.PPC,
		Pool:          pool,
		ExhaustiveMax: 4,
		Workers:       2,
		Pairs:         []crosscheck.Pair{pair},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.MinimizeSteps == 0 {
		t.Fatal("no minimization ran")
	}
	if len(seen) <= sum.Checked {
		t.Fatalf("%d tests judged, %d checked: the oracle judged none", len(seen), sum.Checked)
	}
	for test, progs := range seen {
		if len(progs) != 1 {
			t.Fatalf("%s: judged over %d programs, want 1", test.Name, len(progs))
		}
	}
}
