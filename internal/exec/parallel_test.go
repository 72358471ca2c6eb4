package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"herdcats/internal/exec"
	"herdcats/internal/testleak"
)

// fingerprint renders a candidate deterministically: final state plus the
// rf and co edge lists. Two candidates with equal fingerprints are the
// same execution, so comparing fingerprint sequences compares streams.
func fingerprint(c *exec.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state{%s}", c.State.Key(nil))
	fmt.Fprintf(&b, " rf=%v co=%v", c.X.RF.Pairs(), c.X.CO.Pairs())
	return b.String()
}

// stream collects the full fingerprint sequence of one enumeration.
func stream(t *testing.T, p *exec.Program, req exec.Request) ([]string, error) {
	t.Helper()
	var out []string
	err := p.Search(context.Background(), req, func(c *exec.Candidate) bool {
		out = append(out, fingerprint(c))
		return true
	})
	return out, err
}

// propertyTests are the shapes the determinism property is checked on:
// read-heavy (iriw), mixed (mp), and the write-heavy pathological test
// whose co permutations dominate.
func propertyTests(t *testing.T) map[string]*exec.Program {
	t.Helper()
	const iriwSrc = `PPC iriw
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 3:r1=y; 3:r2=x; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | lwz r5,0(r1) | li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | lwz r6,0(r2) | stw r4,0(r1) | lwz r6,0(r2) ;
exists (1:r5=1 /\ 1:r6=0 /\ 3:r5=1 /\ 3:r6=0)`
	const wonlySrc = `PPC wonly
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; 2:r1=x; 2:r2=y; }
 P0 | P1 | P2 ;
 li r3,1 | li r3,2 | li r3,3 ;
 stw r3,0(r1) | stw r3,0(r1) | stw r3,0(r1) ;
 stw r3,0(r2) | stw r3,0(r2) | stw r3,0(r2) ;
exists (x=1 /\ y=2)`
	return map[string]*exec.Program{
		"mp":     compile(t, mpSrc),
		"iriw":   compile(t, iriwSrc),
		"wonly":  compile(t, wonlySrc),
		"pathom": compile(t, smallPathologicalSrc(t)),
	}
}

// smallPathologicalSrc trims the budget-test shape to a size that can be
// enumerated to completion: five same-location writes and two reads.
func smallPathologicalSrc(t *testing.T) string {
	t.Helper()
	return `PPC pathosmall
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | li r2,4 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,2 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
 li r2,3 | ;
 stw r2,0(r1) | ;
exists (1:r3=1 /\ 1:r4=2)`
}

// shardStreams runs the partitioned search and returns each folded
// shard's fingerprint stream, in shard order. stop, when non-nil, is the
// consumer's stop predicate: the yield returns false on a candidate it
// matches.
func shardStreams(t *testing.T, p *exec.Program, req exec.Request, stop func(fp string) bool) ([][]string, error) {
	t.Helper()
	return exec.SearchShards(context.Background(), p, req, func() func(exec.Walk) []string {
		return func(walk exec.Walk) []string {
			var out []string
			walk(func(c *exec.Candidate) bool {
				fp := fingerprint(c)
				out = append(out, fp)
				return stop == nil || !stop(fp)
			})
			return out
		}
	})
}

// concat joins per-shard streams in shard order.
func concat(parts [][]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// sameStream fails the test unless got is exactly want.
func sameStream(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d differs:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// TestParallelMatchesSequential is the partition property: for workers in
// {1, 2, 8}, the per-shard candidate streams of SearchShards, concatenated
// in shard order, are exactly the sequential candidate sequence.
func TestParallelMatchesSequential(t *testing.T) {
	for name, p := range propertyTests(t) {
		t.Run(name, func(t *testing.T) {
			want, err := stream(t, p, exec.Request{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("sequential enumeration yielded no candidates")
			}
			for _, workers := range []int{1, 2, 8} {
				parts, err := shardStreams(t, p, exec.Request{Workers: workers}, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers > 1 && len(parts) < 2 {
					t.Fatalf("workers=%d: %d shard(s); the property needs a real partition", workers, len(parts))
				}
				sameStream(t, fmt.Sprintf("workers=%d", workers), concat(parts), want)
			}
		})
	}
}

// TestParallelTruncationDeterministic: under a MaxCandidates budget the
// folded shard-order prefix truncates at exactly the sequential point,
// with the same structured error, on every property program; a truncated
// trace enumeration reports the same error too.
func TestParallelTruncationDeterministic(t *testing.T) {
	budgets := []exec.Budget{
		{MaxCandidates: 1}, {MaxCandidates: 7}, {MaxCandidates: 100},
		{MaxTracesPerThread: 1}, {MaxTracesPerThread: 1, MaxCandidates: 3},
	}
	for name, p := range propertyTests(t) {
		t.Run(name, func(t *testing.T) {
			for _, b := range budgets {
				want, wantErr := stream(t, p, exec.Request{Budget: b})
				var wantLim *exec.LimitError
				if wantErr != nil && !errors.As(wantErr, &wantLim) {
					t.Fatalf("%+v: sequential error = %v", b, wantErr)
				}
				for _, workers := range []int{2, 8} {
					what := fmt.Sprintf("%+v workers=%d", b, workers)
					parts, err := shardStreams(t, p, exec.Request{Budget: b, Workers: workers}, nil)
					var lim *exec.LimitError
					switch {
					case wantLim == nil && err != nil:
						t.Fatalf("%s: error = %v, want nil", what, err)
					case wantLim != nil && !errors.As(err, &lim):
						t.Fatalf("%s: error = %v, want %v", what, err, wantLim)
					case wantLim != nil && *lim != *wantLim:
						t.Fatalf("%s: limit error %+v, want %+v", what, lim, wantLim)
					}
					sameStream(t, what, concat(parts), want)
				}
			}
		})
	}
}

// TestParallelEarlyStop: a consumer stopping at a candidate ends the
// partitioned search there, with a nil error: the folded shards
// concatenate to exactly the sequential prefix up to and including it. A
// stop past a MaxCandidates cap is outside the sequential prefix and
// ignored; a stop exactly at the cap wins over the cap, as in Search.
func TestParallelEarlyStop(t *testing.T) {
	p := compile(t, smallPathologicalSrc(t))
	all, err := stream(t, p, exec.Request{})
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) func(string) bool { return func(fp string) bool { return fp == all[i] } }
	for _, workers := range []int{2, 8} {
		for _, k := range []int{1, 5, len(all) / 2, len(all)} {
			what := fmt.Sprintf("workers=%d stop=%d", workers, k)
			parts, err := shardStreams(t, p, exec.Request{Workers: workers}, at(k-1))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameStream(t, what, concat(parts), all[:k])
		}

		parts, err := shardStreams(t, p, exec.Request{Workers: workers, Budget: exec.Budget{MaxCandidates: 7}}, at(9))
		if !errors.Is(err, exec.ErrBudgetExceeded) {
			t.Fatalf("workers=%d, stop past the cap: error = %v, want the cap", workers, err)
		}
		sameStream(t, fmt.Sprintf("workers=%d stop past cap", workers), concat(parts), all[:7])

		parts, err = shardStreams(t, p, exec.Request{Workers: workers, Budget: exec.Budget{MaxCandidates: 7}}, at(6))
		if err != nil {
			t.Fatalf("workers=%d, stop at the cap: error = %v, want nil", workers, err)
		}
		sameStream(t, fmt.Sprintf("workers=%d stop at cap", workers), concat(parts), all[:7])
	}
}

// TestParallelCancel: canceling the context stops the partitioned search
// and reports ErrCanceled, with no goroutine deadlock or leak.
func TestParallelCancel(t *testing.T) {
	defer testleak.Baseline()(t)
	p := compile(t, smallPathologicalSrc(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	_, err := exec.SearchShards(ctx, p, exec.Request{Workers: 4}, func() func(exec.Walk) int {
		return func(walk exec.Walk) int {
			walk(func(*exec.Candidate) bool {
				if seen.Add(1) == 3 {
					cancel()
				}
				return true
			})
			return 0
		}
	})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
}

// TestParallelPanicReraised: a consumer panicking on a worker goroutine
// does not kill the process; the panic resurfaces from SearchShards on the
// caller's goroutine, where the caller can recover it.
func TestParallelPanicReraised(t *testing.T) {
	defer testleak.Baseline()(t)
	p := compile(t, smallPathologicalSrc(t))
	defer func() {
		if r := recover(); r != "consumer bug" {
			t.Fatalf("recovered %v, want the consumer's panic", r)
		}
	}()
	exec.SearchShards(context.Background(), p, exec.Request{Workers: 4}, func() func(exec.Walk) int {
		return func(walk exec.Walk) int {
			walk(func(*exec.Candidate) bool { panic("consumer bug") })
			return 0
		}
	})
	t.Fatal("SearchShards returned normally")
}

// TestParallelSameSetUnordered is a defence-in-depth check: even if the
// ordering contract were relaxed, the candidate multiset must match.
func TestParallelSameSetUnordered(t *testing.T) {
	p := compile(t, mpSrc)
	want, err := stream(t, p, exec.Request{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shardStreams(t, p, exec.Request{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := concat(parts)
	sort.Strings(want)
	sort.Strings(got)
	sameStream(t, "multiset", got, want)
}
