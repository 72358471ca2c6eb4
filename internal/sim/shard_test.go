package sim_test

// Tests for the sharded verdict: with Workers > 1 every worker goroutine
// checks its own shards' candidates and the per-shard partial outcomes
// fold in shard order. The folded outcome must be the sequential one byte
// for byte — unbudgeted and truncated — and no stop (cancellation, a
// model that fails to evaluate) may leak a worker goroutine.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
	"herdcats/internal/testleak"
)

// coSrc is a write-heavy shape big enough to split into many shards: five
// writes to x over two threads and two reads of it.
const coSrc = `PPC cofive
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | li r2,4 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,2 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
 li r2,3 | ;
 stw r2,0(r1) | ;
exists (1:r3=1 /\ 1:r4=2)`

// outcomeBytes simulates and renders the outcome's wire form.
func outcomeBytes(t *testing.T, req sim.Request) []byte {
	t.Helper()
	out, err := sim.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("%s/%s workers=%d budget=%+v: %v", req.Program.Test.Name, req.Checker.Name(),
			req.Options.Workers, req.Budget, err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutcomeJSONWorkersDifferential: over the catalog, under compiled cat
// Power and the whole models zoo, the OutcomeJSON at workers 2, 4 and 8 is
// byte-identical to workers=1 — unbudgeted, and truncated at several
// MaxCandidates, where the folded shard prefix must stop exactly where the
// sequential search does.
func TestOutcomeJSONWorkersDifferential(t *testing.T) {
	power, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	checkers := []sim.Checker{power}
	for _, m := range models.All() {
		checkers = append(checkers, m)
	}
	budgets := []exec.Budget{{}, {MaxCandidates: 1}, {MaxCandidates: 3}, {MaxCandidates: 7}}
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, m := range checkers {
			for _, b := range budgets {
				req := sim.Request{Program: p, Checker: m, Budget: b}
				want := outcomeBytes(t, req)
				for _, workers := range []int{2, 4, 8} {
					req.Options.Workers = workers
					if got := outcomeBytes(t, req); !bytes.Equal(got, want) {
						t.Errorf("%s/%s budget=%+v workers=%d: outcome diverges from workers=1\nwant %s\ngot  %s",
							e.Name, m.Name(), b, workers, want, got)
					}
				}
			}
		}
	}
}

// TestShardedTruncationOnLargeSpace: the same differential on a space big
// enough that the cap falls deep inside some shard at every worker count,
// so the crossing shard is walked again up to the remaining count.
func TestShardedTruncationOnLargeSpace(t *testing.T) {
	power, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(litmus.MustParse(coSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{0, 1, 50, 333, 1000} {
		req := sim.Request{Program: p, Checker: power, Budget: exec.Budget{MaxCandidates: max}}
		want := outcomeBytes(t, req)
		for _, workers := range []int{2, 4, 8} {
			req.Options.Workers = workers
			if got := outcomeBytes(t, req); !bytes.Equal(got, want) {
				t.Errorf("max=%d workers=%d: outcome diverges from workers=1\nwant %s\ngot  %s", max, workers, want, got)
			}
		}
	}
}

// TestObsCandidatesMatchOutcome: every search path reports its candidates
// to the trace's enumeration counters — the sequential one, the sharded
// one and a truncated sharded one — and the count is the outcome's.
func TestObsCandidatesMatchOutcome(t *testing.T) {
	p, err := exec.Compile(litmus.MustParse(coSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{0, 100} {
		for _, workers := range []int{1, 2, 8} {
			tr := obs.NewTrace()
			out, err := sim.Simulate(context.Background(), sim.Request{
				Program: p, Checker: models.Power, Obs: tr,
				Budget: exec.Budget{MaxCandidates: max}, Options: sim.Options{Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Summary().Enum.Candidates; got != uint64(out.Candidates) || out.Candidates == 0 {
				t.Errorf("max=%d workers=%d: obs counted %d candidates, outcome %d", max, workers, got, out.Candidates)
			}
		}
	}
}

// TestTracedPhasesSumToWall: the phase spans are exclusive — enumerate is
// the walk alone, check the checker alone — so on one worker compile,
// enumerate, check and verdict add up to the run's wall clock.
func TestTracedPhasesSumToWall(t *testing.T) {
	test := litmus.MustParse(coSrc)
	sim.Simulate(context.Background(), sim.Request{Test: test, Checker: models.Power}) // warm-up
	tr := obs.NewTrace()
	start := time.Now()
	if _, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: models.Power, Obs: tr}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var sum time.Duration
	seen := map[string]bool{}
	for _, s := range tr.Summary().Phases {
		sum += time.Duration(s.DurationUS) * time.Microsecond
		seen[s.Phase] = true
	}
	for _, ph := range []string{obs.PhaseCompile, obs.PhaseEnumerate, obs.PhaseCheck, obs.PhaseVerdict} {
		if !seen[ph] {
			t.Errorf("phase %q missing from the trace", ph)
		}
	}
	// ε covers the unspanned set-up (evaluator and keyer construction)
	// and the microsecond truncation of each span.
	eps := wall/20 + 200*time.Microsecond
	if d := wall - sum; d < 0 || d > eps {
		t.Errorf("phases sum to %v, wall %v: off by %v, ε %v", sum, wall, d, eps)
	}
}

// cancelAt is a checker that cancels the run at its n-th check, counted
// across all workers.
type cancelAt struct {
	sim.Checker
	n      int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAt) Check(x *events.Execution) core.Result {
	if c.seen.Add(1) == c.n {
		c.cancel()
	}
	return c.Checker.Check(x)
}

// TestShardedStopsDoNotLeak: a mid-search cancellation ends a sharded
// Simulate as an Incomplete outcome, and a model that fails to evaluate
// ends it with the error, not an Incomplete outcome; neither leaves a
// worker goroutine behind.
func TestShardedStopsDoNotLeak(t *testing.T) {
	check := testleak.Baseline()
	p, err := exec.Compile(litmus.MustParse(coSrc))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := sim.Simulate(ctx, sim.Request{
		Program: p, Checker: &cancelAt{Checker: models.Power, n: 40, cancel: cancel},
		Options: sim.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incomplete || !errors.Is(out.Reason, exec.ErrCanceled) {
		t.Errorf("canceled run: Incomplete=%v Reason=%v, want canceled", out.Incomplete, out.Reason)
	}

	diverge, err := cat.Compile("\"diverge\"\nlet rec bad = ~bad & rf\nacyclic bad | po\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		if _, err := sim.Simulate(context.Background(), sim.Request{
			Program: p, Checker: diverge, Options: sim.Options{Workers: workers},
		}); err == nil || !strings.Contains(err.Error(), "did not converge") {
			t.Errorf("workers=%d: want the convergence error, got %v", workers, err)
		}
	}
	check(t)
}

// panicky panics on every check.
type panicky struct{ sim.Checker }

func (panicky) Check(*events.Execution) core.Result { panic("checker bug") }

// TestShardedCheckerPanicReachesCaller: a checker panicking on a worker
// goroutine resurfaces from Simulate on the caller's goroutine, where
// callers such as the campaign runner contain it per job.
func TestShardedCheckerPanicReachesCaller(t *testing.T) {
	p, err := exec.Compile(litmus.MustParse(coSrc))
	if err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		sim.Simulate(context.Background(), sim.Request{
			Program: p, Checker: panicky{models.Power}, Options: sim.Options{Workers: 4},
		})
		return nil
	}()
	if fmt.Sprint(got) != "checker bug" {
		t.Fatalf("recovered %v, want the checker's panic", got)
	}
}

// padded compiles testdata/padded's copy of a catalogue test, whose
// register-only rows push its executions past 64 events, so every
// relation row spans two words and the memory events of later threads sit
// in the second word.
func padded(t *testing.T, name string) *exec.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "padded", name+".litmus"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(litmus.MustParse(string(src)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		n = c.X.N()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n <= 64 {
		t.Fatalf("%s padded: %d events, want more than 64", name, n)
	}
	return p
}

// TestMultiWordVerdict: catalogue verdicts padded past 64 events run the
// multi-word relation kernels end to end. Compiled cat Power, the cat
// interpreter and the native zoo model must each produce, at one worker
// and at four, their own OutcomeJSON for the unpadded test, byte for
// byte, and the three must agree with each other (up to the case of the
// zoo's check names). iriw+syncs adds a shape whose forbidden candidate
// fails a check, so failed_by is compared too.
func TestMultiWordVerdict(t *testing.T) {
	power, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	checkers := []sim.Checker{power, power.Interpreted(), models.Power}
	for _, name := range []string{"mp+lwsync+addr-bigdetour-addr", "iriw+syncs"} {
		e, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("catalogue has no %s", name)
		}
		small, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		p := padded(t, name)
		ref := outcomeBytes(t, sim.Request{Program: small, Checker: power})
		for _, m := range checkers {
			want := outcomeBytes(t, sim.Request{Program: small, Checker: m})
			if !bytes.EqualFold(want, ref) {
				t.Errorf("%s: %s disagrees with compiled cat Power\nwant %s\ngot  %s", name, m.Name(), ref, want)
			}
			for _, workers := range []int{1, 4} {
				got := outcomeBytes(t, sim.Request{Program: p, Checker: m, Options: sim.Options{Workers: workers}})
				if !bytes.Equal(got, want) {
					t.Errorf("%s padded, %s workers=%d: outcome diverges from the unpadded test\nwant %s\ngot  %s",
						name, m.Name(), workers, want, got)
				}
			}
		}
	}
}
