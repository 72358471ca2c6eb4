package exec_test

// Reuse differentials for a program's stage-1 storage: Release hands the
// storage back, rewound, and the next program carves its traces and
// skeletons from it. These tests hand one storage from test to test and
// require every trace, skeleton and candidate to equal fresh storage's.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// storeCorpus is a sample of the verdict shelf's diy tests (every 7th PPC
// and ARM cycle of length 3 and 4), in an order where the size
// alternately grows and shrinks: smallest, largest, next smallest, ...
func storeCorpus(t *testing.T) []*litmus.Test {
	t.Helper()
	var tests []*litmus.Test
	for _, d := range []struct {
		arch litmus.Arch
		pool []diy.Edge
	}{{litmus.PPC, diy.PowerPool()}, {litmus.ARM, diy.ARMPool()}} {
		i := 0
		diy.Enumerate(d.pool, 3, 4, func(cy diy.Cycle) bool {
			if i++; i%7 == 0 {
				if test, err := diy.Generate(d.arch, cy); err == nil {
					tests = append(tests, test)
				}
			}
			return true
		})
	}
	size := func(t *litmus.Test) int {
		n := 0
		for _, th := range t.Threads {
			n += len(th)
		}
		return n
	}
	slices.SortStableFunc(tests, func(a, b *litmus.Test) int { return size(a) - size(b) })
	zigzag := make([]*litmus.Test, 0, len(tests))
	for lo, hi := 0, len(tests)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		zigzag = append(zigzag, tests[lo])
		if lo != hi {
			zigzag = append(zigzag, tests[hi])
		}
	}
	return zigzag
}

// skeletonKey renders every part of an execution that its skeleton fixes:
// the events, the base relations but rf and co, and the whole static
// derivation.
func skeletonKey(x *events.Skeleton) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#v\n", x.Events)
	for _, r := range [...]any{x.PO, x.IICO, x.IICOAddr, x.IICOData, x.RFReg,
		x.All, x.R, x.W, x.M, x.B, x.RegEvents,
		x.MemPO, x.POLoc, x.IntraThread, x.Addr, x.Data, x.Ctrl, x.CtrlCfenceAll()} {
		fmt.Fprintf(&b, "%v\n", r)
	}
	for _, fm := range [...]map[events.FenceKind]rel.Rel{x.CtrlCfence, x.FenceRel} {
		var kinds []events.FenceKind
		for k := range fm {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%s: %v\n", k, fm[k])
		}
	}
	return b.String()
}

// candidateKey renders a candidate: its skeleton, rf, co, every dynamic
// relation and its final state.
func candidateKey(c *exec.Candidate) string {
	x := c.X
	var b strings.Builder
	b.WriteString(skeletonKey(x.Skeleton))
	for _, r := range [...]any{x.RF, x.CO, x.FR, x.Com, x.SW, x.RFE, x.RFI, x.COE, x.COI, x.FRE, x.FRI, x.MemRF()} {
		fmt.Fprintf(&b, "%v\n", r)
	}
	fmt.Fprintf(&b, "%v %v\n", c.State.Regs, c.State.Mem)
	return b.String()
}

// stage1 renders what a program's stage 1 yields: each thread's traces,
// the assembled skeleton of the first trace of every thread, and every
// candidate of a full search.
func stage1(t *testing.T, p *exec.Program) []string {
	t.Helper()
	var out, first []string
	var firsts []exec.Trace
	for tid := range p.Threads {
		ts, err := p.ThreadTraces(tid)
		if err != nil {
			t.Fatalf("%s P%d: %v", p.Test.Name, tid, err)
		}
		for i, tr := range ts {
			out = append(out, fmt.Sprintf("P%d trace %d: %#v %v %v %v %v %v", tid, i,
				tr.Events, tr.IICO, tr.IICOAddr, tr.IICOData, tr.RFReg, tr.FinalRegs))
		}
		firsts = append(firsts, ts[0])
	}
	asm, err := p.Assemble(firsts)
	if err != nil {
		t.Fatalf("%s: Assemble: %v", p.Test.Name, err)
	}
	first = append(first, skeletonKey(asm.X), fmt.Sprint(asm.ThreadOf, asm.LocalIdx, asm.FinalRegs))
	err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		out = append(out, candidateKey(c))
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", p.Test.Name, err)
	}
	return append(out, first...)
}

// TestReusedStoreMatchesFresh: one storage carves the stage 1 of every
// test of the corpus, released and rewound between tests, and every
// trace, the assembled skeleton and every candidate of each test (each
// static relation, rf, co, each dynamic relation and the final state)
// equal those of fresh storage. The corpus order makes the event count
// both grow and shrink between consecutive tests, which the test
// confirms.
func TestReusedStoreMatchesFresh(t *testing.T) {
	reused := exec.NewStore()
	grew, shrank, prev := false, false, -1
	for _, test := range storeCorpus(t) {
		fresh, err := exec.CompileIn(test, exec.NewStore())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		p, err := exec.CompileIn(test, reused)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		want, got := stage1(t, fresh), stage1(t, p)
		if len(got) != len(want) {
			t.Fatalf("%s: %d traces, skeletons and candidates on reused storage, %d on fresh", test.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: item %d on reused storage:\n%s\nfresh:\n%s", test.Name, i, got[i], want[i])
			}
		}
		events := 0
		for tid := range p.Threads {
			ts, _ := p.ThreadTraces(tid)
			events += len(ts[0].Events)
		}
		grew, shrank = grew || prev >= 0 && events > prev, shrank || prev >= 0 && events < prev
		prev = events
		reused.Release(p)
	}
	if !grew || !shrank {
		t.Fatalf("the corpus order never made the event count grow (%v) or shrink (%v)", grew, shrank)
	}
}

// TestPlainSearchStoreBounded: a search of a plain program carves each
// skeleton it walks into a store of its own and rewinds it once walked,
// so over the 64 feasible combinations of manyCombosSrc, every skeleton
// of one shape, what the store has in use and what it holds, at each
// combination's first candidate, stop changing within the first few. A
// store keeping every walked skeleton would grow with each combination.
// The sharded search's workers have no more in use than that.
func TestPlainSearchStoreBounded(t *testing.T) {
	p := compile(t, manyCombosSrc)
	type size struct{ used, maps, held int }
	var firsts []size // at each combination's first candidate
	var last *events.Skeleton
	err := p.Search(context.Background(), exec.Request{Deferred: true}, func(c *exec.Candidate) bool {
		if c.X.Skeleton != last {
			last = c.X.Skeleton
			used, maps, held := exec.StoreSize(c)
			firsts = append(firsts, size{used, maps, held})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(firsts) != 64 {
		t.Fatalf("%d combinations walked, want 64", len(firsts))
	}
	// The store comes from a pool, as grown as its last owner left it, so
	// its chunks may still grow over the first combinations; from then
	// on it holds, and has in use, as much at every combination.
	settled := len(firsts) - 1
	for settled > 0 && firsts[settled-1] == firsts[settled] {
		settled--
	}
	if settled > 8 {
		t.Fatalf("the store was still changing at combination %d of 64: %+v there, %+v at the last",
			settled, firsts[settled-1], firsts[len(firsts)-1])
	}

	var mu sync.Mutex
	most := 0
	_, err = exec.SearchShards(context.Background(), p, exec.Request{Workers: 2, Deferred: true}, func() func(exec.Walk) int {
		return func(w exec.Walk) int {
			w(func(c *exec.Candidate) bool {
				used, _, _ := exec.StoreSize(c)
				mu.Lock()
				most = max(most, used)
				mu.Unlock()
				return true
			})
			return 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if last := firsts[len(firsts)-1]; most > last.used {
		t.Fatalf("a sharded worker's store had %d bytes in use, a sequential search's %d", most, last.used)
	}
}

// TestReleasedProgramRefuses: once released, a program answers nothing:
// Search, SearchShards, ThreadTraces and Assemble return an error, a
// candidate retained past its yield is Expired and a second Release
// panics. A clone taken before the release stays valid after another
// program has carved its stage 1 from the same storage.
func TestReleasedProgramRefuses(t *testing.T) {
	s := exec.NewStore()
	p, err := exec.CompileIn(litmus.MustParse(sharedReadsSrc), s)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := p.ThreadTraces(0)
	if err != nil {
		t.Fatal(err)
	}
	var kept []*exec.Candidate
	var clones []*exec.Candidate
	var want []string
	err = p.Search(context.Background(), exec.Request{Deferred: true}, func(c *exec.Candidate) bool {
		kept = append(kept, c)
		clone := c.Clone()
		clones = append(clones, clone)
		want = append(want, candidateKey(clone))
		return true
	})
	if err != nil || len(kept) < 2 {
		t.Fatalf("search: %d candidates, %v", len(kept), err)
	}
	s.Release(p)

	if err := p.Search(context.Background(), exec.Request{}, func(*exec.Candidate) bool { return true }); err == nil {
		t.Error("Search on a released program returned no error")
	}
	_, err = exec.SearchShards(context.Background(), p, exec.Request{Workers: 2}, func() func(exec.Walk) int {
		return func(w exec.Walk) int { w(func(*exec.Candidate) bool { return true }); return 0 }
	})
	if err == nil {
		t.Error("SearchShards on a released program returned no error")
	}
	if _, err := p.ThreadTraces(0); err == nil {
		t.Error("ThreadTraces on a released program returned no error")
	}
	if _, err := p.Assemble([]exec.Trace{traces[0], traces[0]}); err == nil {
		t.Error("Assemble on a released program returned no error")
	}
	for i, c := range kept {
		if !c.Expired() {
			t.Errorf("candidate %d of a released program is not Expired", i)
		}
	}

	// Another program overwrites the storage.
	q, err := exec.CompileIn(litmus.MustParse(mpSrc), s)
	if err != nil {
		t.Fatal(err)
	}
	stage1(t, q)
	for i, c := range clones {
		if got := candidateKey(c); got != want[i] {
			t.Fatalf("clone %d changed once its program's storage was reused:\n%s\nwas:\n%s", i, got, want[i])
		}
	}
	s.Release(q)

	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	p.Release()
}
