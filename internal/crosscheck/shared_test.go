package crosscheck_test

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/catalog"
	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// catalogOf returns the catalogue's tests of one dialect.
func catalogOf(arch litmus.Arch) []*litmus.Test {
	var out []*litmus.Test
	for _, e := range catalog.Tests() {
		if test := e.Test(); test.Arch == arch {
			out = append(out, test)
		}
	}
	return out
}

// diyCorpusOf is the corpus shape of bmc's TestAgainstSimulatorDiy: every
// 2-cycle of the dialect's pool, then seeded 4- and 5-cycles, n tests in
// all.
func diyCorpusOf(t *testing.T, arch litmus.Arch, pool []diy.Edge, n int) []*litmus.Test {
	t.Helper()
	var out []*litmus.Test
	seen := map[string]bool{}
	emit := func(c diy.Cycle) bool {
		test, err := diy.Generate(arch, c)
		if err != nil || seen[test.Name] {
			return true
		}
		seen[test.Name] = true
		out = append(out, test)
		return len(out) < n
	}
	diy.Enumerate(pool, 2, 2, emit)
	if len(out) < n {
		diy.Sample(pool, []int{4, 5}, 1, emit)
	}
	if len(out) < n {
		t.Fatalf("diy %s corpus: %d tests, want %d", arch, len(out), n)
	}
	return out
}

// sharedInputs are TestSharedVerdictsMatchFresh's tests per dialect: the
// sampled corpus above, the catalogue, and the corpora of bmc's
// TestAgainstSimulatorDiy (300 diy tests each for PPC and ARM, the
// detour test and the deep cumulativity chains), plus 100 diy X86 tests.
func sharedInputs(t *testing.T) map[litmus.Arch][]*litmus.Test {
	t.Helper()
	ppc := append(corpus(t, 15), catalogOf(litmus.PPC)...)
	ppc = append(ppc, diyCorpusOf(t, litmus.PPC, diy.PowerPool(), 300)...)
	src, err := os.ReadFile("../../testdata/litmus/mp+lwsync+data-detour-addr.litmus")
	if err != nil {
		t.Fatal(err)
	}
	ppc = append(ppc, litmus.MustParse(string(src)))
	for _, cy := range []string{
		"LwSyncdWW Rfe DpAddrdW Rfe DpAddrdW Rfe DpAddrdR Fre",
		"LwSyncdWW Rfe DpAddrdW Rfe DpAddrdW Rfe DpAddrdW Rfe DpAddrdR Fre",
	} {
		c, err := diy.ParseCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil {
			t.Fatalf("%s: %v", cy, err)
		}
		ppc = append(ppc, test)
	}
	return map[litmus.Arch][]*litmus.Test{
		litmus.PPC: ppc,
		litmus.ARM: append(catalogOf(litmus.ARM), diyCorpusOf(t, litmus.ARM, diy.ARMPool(), 300)...),
		litmus.X86: append(catalogOf(litmus.X86), diyCorpusOf(t, litmus.X86, diy.X86Pool(), 100)...),
	}
}

// TestSharedVerdictsMatchFresh: under ComparePairs every decider of a
// dialect's table judges the test over one shared program, and the
// deciders that judge candidates over one shared walk of it; each
// verdict, and each error, must equal the decider's own Decide on a fresh
// context, which compiles and walks the test alone. Over the PPC, ARM and
// X86 tables and their inputs (sharedInputs).
func TestSharedVerdictsMatchFresh(t *testing.T) {
	for arch, tests := range sharedInputs(t) {
		pairs := crosscheck.Pairs(arch)
		deciders := map[string]crosscheck.Decider{}
		for _, p := range pairs {
			deciders[p.A.Name()], deciders[p.B.Name()] = p.A, p.B
		}
		for _, test := range tests {
			rep, err := crosscheck.ComparePairs(context.Background(), test, pairs...)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			if len(rep.Verdicts) != len(deciders) {
				t.Fatalf("%s: %d verdicts, want %d", test.Name, len(rep.Verdicts), len(deciders))
			}
			for _, v := range rep.Verdicts {
				allowed, err := deciders[v.Decider].Decide(context.Background(), test)
				fresh := crosscheck.Verdict{Decider: v.Decider, Allowed: allowed}
				if err != nil {
					fresh = crosscheck.Verdict{Decider: v.Decider, Err: err.Error()}
				}
				if v != fresh {
					t.Errorf("%s: %s shared %+v, fresh %+v", test.Name, v.Decider, v, fresh)
				}
			}
		}
	}
}

// programSpy records the program each Decide would be handed.
type programSpy struct {
	crosscheck.Decider
	seen *[]*exec.Program
}

func (s programSpy) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	p, done, err := exec.ProgramFor(ctx, test)
	if err != nil {
		return false, err
	}
	defer done()
	*s.seen = append(*s.seen, p)
	return s.Decider.Decide(ctx, test)
}

// TestComparePairsSharesOneProgram: every decider of one comparison gets
// the same compiled program, and two comparisons of one test get two.
func TestComparePairsSharesOneProgram(t *testing.T) {
	test := onePPCTest(t)
	var seen []*exec.Program
	var pairs []crosscheck.Pair
	for _, p := range crosscheck.Pairs(litmus.PPC) {
		p.A, p.B = programSpy{p.A, &seen}, programSpy{p.B, &seen}
		pairs = append(pairs, p)
	}
	for range 2 {
		if _, err := crosscheck.ComparePairs(context.Background(), test, pairs...); err != nil {
			t.Fatal(err)
		}
	}
	half := len(seen) / 2
	if half < 2 {
		t.Fatalf("%d Decide calls", len(seen))
	}
	for i, p := range seen {
		if first := seen[i/half*half]; p != first {
			t.Fatalf("Decide %d of a comparison got another program than the first", i%half)
		}
	}
	if seen[0] == seen[half] {
		t.Fatal("two comparisons shared one program")
	}
}

// TestComparePairsAllocsCeiling is the bench-smoke guard on what one
// comparison costs the allocator: the full PPC table over one diy test
// must allocate no more than measured once the compiled test's storage
// outlived the test too: its traces and skeletons carved from a pooled
// store, the machine judge's from a pooled scratch, each released when
// the comparison is done (go1.24: 392; 650 once the cat evaluators, SAT
// solver and circuit, and search slot came from pools; 1685 once its walk
// deciders shared one deferred
// candidate walk, 2415 when each walked the
// candidates alone, the cat models through sim.Simulate's histograms,
// once the bmc deciders shared one SAT instance over flat relation
// matrices; 2529 with a slice per matrix row, 3236 when each bmc decider
// encoded the test alone, once the CAV12 pair ran power-cav.cat as a cat
// decider; 3539 when it ran the multi-event checker, 3574 when mining first ran the cat
// models, 3765 once the machine and the hardware were built from compiled
// cat models, 4050 with both on the zoo, 4196 when the deciders first
// shared one compiled test, 5771 when each decider re-enumerates the
// traces and skeletons, 6558 when each also compiles the test).
// Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestComparePairsAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the comparison allocation ceiling check")
	}
	c, err := diy.ParseCycle("PodWW Rfe DpAddrdR PodRR Fre")
	if err != nil {
		t.Fatal(err)
	}
	test, err := diy.Generate(litmus.PPC, c)
	if err != nil {
		t.Fatal(err)
	}
	pairs := crosscheck.Pairs(litmus.PPC)
	allocs := testing.AllocsPerRun(20, func() {
		rep, err := crosscheck.ComparePairs(context.Background(), test, pairs...)
		if err != nil || !rep.Agreed() {
			t.Fatalf("%s: %v %+v", test.Name, err, rep)
		}
	})
	const ceiling = 392
	t.Logf("%s over the PPC table: %.0f allocs/op (ceiling %d)", test.Name, allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%s over the PPC table: %.0f allocs/op, ceiling %d", test.Name, allocs, ceiling)
	}
}

// TestComparePairsBytesCeiling is the bench-smoke guard on the bytes one
// comparison allocates: the full PPC table over the 200-test diy PPC
// corpus (diyCorpusOf) must allocate, per comparison, no more than
// measured once cat's po builtin was one relation per skeleton instead of
// a copy per evaluator bind (go1.24: 28–37 KB; 31–39 KB once the
// compiled test's storage outlived the test too, its traces, skeletons
// and machine judge; 129–138 KB once the deciders' storage outlived the
// test; 281 KB when every cat evaluator, SAT solver, circuit and search
// slot was built for one test and dropped). The figure is TotalAlloc over one pass of the corpus
// after a warm-up pass. It moves by several KB as the collector empties
// the pools, so the ceiling is about 15% above the measured figures.
// Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestComparePairsBytesCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the comparison bytes ceiling check")
	}
	tests := diyCorpusOf(t, litmus.PPC, diy.PowerPool(), 200)
	pairs := crosscheck.Pairs(litmus.PPC)
	pass := func() {
		for _, test := range tests {
			rep, err := crosscheck.ComparePairs(context.Background(), test, pairs...)
			if err != nil || !rep.Agreed() {
				t.Fatalf("%s: %v %+v", test.Name, err, rep)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(len(tests))
	const ceiling = 42_000
	t.Logf("%d diy PPC tests over the PPC table: %d bytes/op (ceiling %d)", len(tests), perOp, ceiling)
	if perOp > ceiling {
		t.Errorf("%d diy PPC tests over the PPC table: %d bytes/op, ceiling %d", len(tests), perOp, ceiling)
	}
}

// concurrentBMC is a decider that, inside a comparison, runs the bmc
// deciders from several goroutines at once on the comparison's context,
// so that they reach its shared SAT instance together, and checks each
// answer against the decider's own Decide on a fresh context.
type concurrentBMC struct{ t *testing.T }

func (concurrentBMC) Name() string { return "concurrent bmc" }

func (d concurrentBMC) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	ids := []bmc.ModelID{bmc.SC, bmc.TSO, bmc.Power}
	want := map[bmc.ModelID]bool{}
	for _, id := range ids {
		allowed, err := crosscheck.BMC(id).Decide(context.Background(), test)
		if err != nil {
			return false, err
		}
		want[id] = allowed
	}
	var wg sync.WaitGroup
	for range 4 {
		for _, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := crosscheck.BMC(id).Decide(ctx, test)
				if err != nil || got != want[id] {
					d.t.Errorf("%s under %s, shared and concurrent: %v (%v), fresh %v", test.Name, id, got, err, want[id])
				}
			}()
		}
	}
	wg.Wait()
	return want[bmc.Power], nil
}

// TestBMCDecidersConcurrentOnOneComparison: bmc deciders that reach one
// comparison's SAT instance from several goroutines each get the answer
// they get alone (meant for make race).
func TestBMCDecidersConcurrentOnOneComparison(t *testing.T) {
	for _, test := range corpus(t, 2)[:12] {
		pair := crosscheck.Pair{A: concurrentBMC{t}, B: crosscheck.BMC(bmc.Power), Rel: crosscheck.Equal}
		rep, err := crosscheck.ComparePairs(context.Background(), test, pair)
		if err != nil || !rep.Agreed() {
			t.Fatalf("%s: %v %+v", test.Name, err, rep)
		}
	}
}
