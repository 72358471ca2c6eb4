package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// sharedReadsSrc has a trace enumeration long enough to be polled for
// cancellation mid-way (P1's three reads range over a four-value domain:
// 85 runs, 64 traces), a small candidate space (only reads of 0, 1 or 2
// can be fed), and a read in P0 too, so a cap on P1's traces changes
// which trace choice each combination index stands for.
const sharedReadsSrc = `PPC sharedreads
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
 li r2,2 | lwz r5,0(r1) ;
 stw r2,0(r1) | li r6,3 ;
 lwz r5,0(r1) | ;
exists (0:r5=2 /\ 1:r3=2 /\ 1:r4=1)`

// pollCancel is a context that reads as canceled from its n-th Done poll
// on. A search polls once before it starts and then every 64th step, so
// n = 2 cancels sharedReadsSrc's search inside its trace enumeration.
type pollCancel struct {
	context.Context
	n     int32
	polls atomic.Int32
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *pollCancel) Done() <-chan struct{} {
	if c.polls.Add(1) >= c.n {
		return closedDone
	}
	return nil
}

func (c *pollCancel) Err() error {
	if c.polls.Load() >= c.n {
		return context.Canceled
	}
	return nil
}

// sharedStep is one search of TestSharedProgramMatchesFresh.
type sharedStep struct {
	name          string
	ctx           func() context.Context
	req           exec.Request
	cancelInYield bool // cancel ctx from inside the first yield
	traces        bool // the shared program keeps trace sets after the step
}

// runStep runs one step's search on p and returns its candidate stream
// (sharded searches concatenated in shard order) and error.
func runStep(t *testing.T, p *exec.Program, st sharedStep) ([]string, error) {
	t.Helper()
	ctx := st.ctx()
	var cancel context.CancelFunc
	if st.cancelInYield {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	parts, err := exec.SearchShards(ctx, p, st.req, func() func(exec.Walk) []string {
		return func(walk exec.Walk) []string {
			var out []string
			walk(func(c *exec.Candidate) bool {
				out = append(out, fingerprint(c))
				if cancel != nil {
					cancel()
				}
				return true
			})
			return out
		}
	})
	return concat(parts), err
}

// TestSharedProgramMatchesFresh runs one sequence of searches on a shared
// program (exec.ProgramFor under exec.Share) — canceled inside the trace
// enumeration, truncated by MaxTracesPerThread, unbounded, sharded over
// two workers, then the budgets again over the kept traces — and each
// must yield the candidate stream and error of the same search on a
// freshly compiled program. A canceled or truncated enumeration keeps
// nothing; the first complete one keeps the trace sets and skeletons.
func TestSharedProgramMatchesFresh(t *testing.T) {
	test := litmus.MustParse(sharedReadsSrc)
	bg := context.Background
	steps := []sharedStep{
		{name: "canceled", ctx: func() context.Context { return &pollCancel{Context: bg(), n: 2} }},
		{name: "traces-capped", ctx: bg, req: exec.Request{Budget: exec.Budget{MaxTracesPerThread: 5}}},
		{name: "unbounded", ctx: bg, traces: true},
		{name: "sharded", ctx: bg, req: exec.Request{Workers: 2}, traces: true},
		{name: "traces-capped-kept", ctx: bg, req: exec.Request{Budget: exec.Budget{MaxTracesPerThread: 5}}, traces: true},
		{name: "traces-cap-loose", ctx: bg, req: exec.Request{Budget: exec.Budget{MaxTracesPerThread: 64}}, traces: true},
		{name: "sharded-capped", ctx: bg, req: exec.Request{Workers: 2, Budget: exec.Budget{MaxTracesPerThread: 20, MaxCandidates: 9}}, traces: true},
		{name: "canceled-in-yield", ctx: bg, cancelInYield: true, traces: true},
		{name: "deferred", ctx: bg, req: exec.Request{Deferred: true}, traces: true},
	}
	shared := mustProgramFor(t, share(t, test), test)
	for _, st := range steps {
		fresh, err := exec.Compile(test)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := runStep(t, fresh, st)
		got, gotErr := runStep(t, shared, st)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, fresh program's %v", st.name, gotErr, wantErr)
		}
		sameStream(t, st.name, got, want)
		if traces, _ := exec.Memo(fresh); traces {
			t.Fatalf("%s: a compiled program kept its traces", st.name)
		}
		traces, exps := exec.Memo(shared)
		if traces != st.traces {
			t.Fatalf("%s: shared program keeps traces = %v, want %v", st.name, traces, st.traces)
		}
		if traces && exps == 0 {
			t.Fatalf("%s: shared program kept traces but no skeleton", st.name)
		}
	}
	var le *exec.LimitError
	if _, err := runStep(t, shared, steps[1]); !errors.As(err, &le) || le.Limit != "traces" {
		t.Fatalf("capped search over kept traces: err = %v, want a traces LimitError", err)
	}
}

// TestSharedProgramConcurrent starts sequential and sharded searches at
// once on one fresh shared program: whichever keeps the traces, every
// stream equals the fresh sequential one (run it under -race).
func TestSharedProgramConcurrent(t *testing.T) {
	for name, src := range map[string]string{"sharedreads": sharedReadsSrc, "mp": mpSrc} {
		t.Run(name, func(t *testing.T) {
			test := litmus.MustParse(src)
			want, err := stream(t, compile(t, src), exec.Request{})
			if err != nil {
				t.Fatal(err)
			}
			p := mustProgramFor(t, share(t, test), test)
			var wg sync.WaitGroup
			got := make([][]string, 6)
			errs := make([]error, len(got))
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st := sharedStep{ctx: context.Background, req: exec.Request{Workers: i % 3}}
					got[i], errs[i] = runStep(t, p, st)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("search %d: %v", i, errs[i])
				}
				sameStream(t, fmt.Sprintf("search %d", i), got[i], want)
			}
		})
	}
}

// TestProgramForScope: ProgramFor hands out one program per Share context
// and test, and compiles afresh — memoising nothing — for a test the
// context does not share.
func TestProgramForScope(t *testing.T) {
	a, b := litmus.MustParse(mpSrc), litmus.MustParse(sharedReadsSrc)
	ctx := share(t, a)
	p1 := mustProgramFor(t, ctx, a)
	if p2 := mustProgramFor(t, ctx, a); p1 != p2 {
		t.Fatal("two ProgramFor calls under one Share compiled twice")
	}
	if p3 := mustProgramFor(t, share(t, a), a); p3 == p1 {
		t.Fatal("two Share contexts handed out one program")
	}
	for _, p := range []*exec.Program{mustProgramFor(t, ctx, b), mustProgramFor(t, context.Background(), a)} {
		if _, err := stream(t, p, exec.Request{}); err != nil {
			t.Fatal(err)
		}
		if traces, exps := exec.Memo(p); traces || exps != 0 {
			t.Fatalf("%s: an unshared program kept traces=%v and %d skeletons", p.Test.Name, traces, exps)
		}
	}
}

// mustProgramFor is exec.ProgramFor, its done deferred to the end of the
// test.
func mustProgramFor(t *testing.T, ctx context.Context, test *litmus.Test) *exec.Program {
	t.Helper()
	p, done, err := exec.ProgramFor(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(done)
	return p
}

// share is exec.Share on a background context, its release deferred to
// the end of the test.
func share(t *testing.T, test *litmus.Test) context.Context {
	ctx, release := exec.Share(context.Background(), test)
	t.Cleanup(release)
	return ctx
}

// TestSharedProgramManyCombos: a shared program over many trace
// combinations (64 traces per thread, 4096 combinations; a mine-ppc test
// has at most 64) keeps its trace sets and a skeleton for each of the 64
// feasible ones only, and searches as a fresh program does, sequentially
// and sharded.
func TestSharedProgramManyCombos(t *testing.T) {
	test := litmus.MustParse(manyCombosSrc)
	want, err := stream(t, compile(t, manyCombosSrc), exec.Request{})
	if err != nil {
		t.Fatal(err)
	}
	p := mustProgramFor(t, share(t, test), test)
	for _, req := range []exec.Request{{}, {}, {Workers: 2}} {
		got, err := stream(t, p, req)
		if err != nil {
			t.Fatal(err)
		}
		sameStream(t, "manycombos", got, want)
	}
	if traces, exps := exec.Memo(p); !traces || exps != 64 {
		t.Fatalf("kept traces=%v and %d skeletons, want traces and 64", traces, exps)
	}
}

// manyCombosSrc has 64 traces per thread, 4096 trace combinations, 64 of
// them feasible, every skeleton of one shape.
const manyCombosSrc = `PPC manycombos
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; }
 P0 | P1 ;
 li r3,1 | li r3,2 ;
 stw r3,0(r2) | stw r3,0(r1) ;
 lwz r4,0(r1) | lwz r4,0(r2) ;
 lwz r5,0(r1) | lwz r5,0(r2) ;
 lwz r6,0(r1) | lwz r6,0(r2) ;
 li r7,3 | li r7,3 ;
exists (0:r4=2 /\ 1:r4=1)`

// TestThreadTracesKeepsSets: ThreadTraces on a shared program that no
// search has run enumerates every thread once and keeps the sets, and a
// later search takes them: it keeps skeletons, which a search does only
// over the kept sets themselves. A compiled program keeps nothing.
func TestThreadTracesKeepsSets(t *testing.T) {
	test := litmus.MustParse(sharedReadsSrc)
	p := mustProgramFor(t, share(t, test), test)
	fresh := compile(t, sharedReadsSrc)
	var kept [][]exec.Trace
	for tid := range p.Threads {
		got, err := p.ThreadTraces(tid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.ThreadTraces(tid)
		if err != nil || len(got) != len(want) {
			t.Fatalf("thread %d: %d traces, a compiled program's %d (%v)", tid, len(got), len(want), err)
		}
		kept = append(kept, got)
	}
	if traces, exps := exec.Memo(p); !traces || exps != 0 {
		t.Fatalf("after ThreadTraces: kept traces=%v and %d skeletons, want traces and none", traces, exps)
	}
	if traces, _ := exec.Memo(fresh); traces {
		t.Fatal("a compiled program kept its traces")
	}
	want, err := stream(t, fresh, exec.Request{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream(t, p, exec.Request{})
	if err != nil {
		t.Fatal(err)
	}
	sameStream(t, "after ThreadTraces", got, want)
	if _, exps := exec.Memo(p); exps == 0 {
		t.Fatal("the search kept no skeleton: it enumerated its own trace sets")
	}
	for tid := range p.Threads {
		if again, _ := p.ThreadTraces(tid); &again[0] != &kept[tid][0] {
			t.Fatalf("thread %d: ThreadTraces no longer returns the kept set", tid)
		}
	}
}
