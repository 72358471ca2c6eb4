package exec

// Differentials for the skeleton fast path: the feasibility pre-check
// against a full assembly of every trace combination, the candidate
// streams of the sequential and partitioned searches against each other,
// and the traces of the reused builder against traces built with a fresh
// builder per run.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/isa"
	"herdcats/internal/litmus"
)

// branchySrc skips a store when its read sees 0, so its thread's traces
// differ in their events and edge lists, not just in values.
const branchySrc = `PPC branchy
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; }
 P0 | P1 ;
 lwz r3,0(r1) | li r4,1 ;
 cmpwi r3,0 | stw r4,0(r1) ;
 beq LC00 | li r5,2 ;
 li r4,2 | stw r5,0(r2) ;
 stw r4,0(r2) | ;
 LC00: | ;
exists (0:r3=1 /\ y=2)`

// precheckCorpus is the catalogue, branchySrc and a seeded diy PPC sample
// of cycle sizes 3–5, the shapes the cold-light benchmark serves.
func precheckCorpus(t *testing.T) map[string]*Program {
	t.Helper()
	out := map[string]*Program{}
	add := func(name string, test *litmus.Test) {
		p, err := Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	for _, e := range catalog.Tests() {
		add(e.Name, e.Test())
	}
	add("branchy", litmus.MustParse(branchySrc))
	n := 0
	diy.Sample(diy.PowerPool(), []int{3, 4, 5}, 7, func(c diy.Cycle) bool {
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil {
			return true // a cycle diy cannot lay out; draw another
		}
		src := test.String()
		if _, dup := out[test.Name]; !dup {
			add(test.Name, litmus.MustParse(src))
			n++
		}
		return n < 120
	})
	return out
}

// assembledFeasible is the reference for feasible: it assembles the trace
// combination in full, initial writes first, as the skeleton builder did
// before the pre-check, and reports whether every memory read has a
// same-location, same-value write to read from.
func assembledFeasible(t *testing.T, p *Program, allTraces [][]Trace, choice []int) bool {
	t.Helper()
	var evs []events.Event
	for _, loc := range p.locs {
		v, err := p.encode(p.Test.MemInit[loc])
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, events.Event{
			ID: len(evs), Tid: events.InitTid, PC: -1,
			Kind: events.MemWrite, Loc: loc, Val: v,
		})
	}
	for tid := range p.Threads {
		off := len(evs)
		for _, e := range allTraces[tid][choice[tid]].Events {
			e.ID += off
			evs = append(evs, e)
		}
	}
	writesOf := map[string][]int{}
	for _, e := range evs {
		if e.Kind == events.MemWrite {
			writesOf[e.Loc] = append(writesOf[e.Loc], e.ID)
		}
	}
	for _, r := range evs {
		if r.Kind != events.MemRead {
			continue
		}
		fed := false
		for _, w := range writesOf[r.Loc] {
			fed = fed || evs[w].Val == r.Val
		}
		if !fed {
			return false
		}
	}
	return true
}

// TestFeasibleMatchesAssembly: for every trace combination of the corpus,
// the pre-check rejects exactly when the full assembly finds a read with
// no feeding write, and newExpansion builds a skeleton exactly then.
func TestFeasibleMatchesAssembly(t *testing.T) {
	combos, rejected := 0, 0
	for name, p := range precheckCorpus(t) {
		allTraces, _, err := p.allTraces(&search{ctx: context.Background(), st: p.storage()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		choice := make([]int, len(p.Threads))
		for ci := 0; ci < comboCount(allTraces); ci++ {
			comboChoice(allTraces, ci, choice)
			want := assembledFeasible(t, p, allTraces, choice)
			if got := feasible(allTraces, choice); got != want {
				t.Fatalf("%s combo %d %v: pre-check says feasible=%v, full assembly %v", name, ci, choice, got, want)
			}
			e, err := p.newExpansion(p.storage(), allTraces, choice)
			if err != nil {
				t.Fatalf("%s combo %d: %v", name, ci, err)
			}
			if (e != nil) != want {
				t.Fatalf("%s combo %d %v: skeleton built=%v, full assembly feasible=%v", name, ci, choice, e != nil, want)
			}
			combos++
			if !want {
				rejected++
			}
		}
	}
	if rejected == 0 || rejected == combos {
		t.Fatalf("%d of %d combinations infeasible: the corpus must exercise both answers", rejected, combos)
	}
	t.Logf("%d trace combinations, %d infeasible", combos, rejected)
}

// TestFeasibleEncodeError: a test whose initial memory cannot be encoded
// still fails the search with that error, never an empty outcome.
func TestFeasibleEncodeError(t *testing.T) {
	test := litmus.MustParse(`PPC badinit
{ 0:r1=x; }
 P0 ;
 lwz r2,0(r1) ;
exists (0:r2=0)`)
	test.MemInit["x"] = litmus.Value{Loc: "nowhere"}
	p, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Search(context.Background(), Request{}, func(*Candidate) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("Search = %v, want the encoding error", err)
	}
	for _, workers := range []int{1, 4} {
		_, err := SearchShards(context.Background(), p, Request{Workers: workers}, func() func(Walk) int {
			return func(walk Walk) int { walk(func(*Candidate) bool { return true }); return 0 }
		})
		if err == nil || !strings.Contains(err.Error(), "nowhere") {
			t.Errorf("workers=%d: SearchShards = %v, want the encoding error", workers, err)
		}
	}
}

// candidateKey renders a candidate's final state and rf/co edges.
func candidateKey(c *Candidate) string {
	return fmt.Sprintf("%s rf=%v co=%v", c.State.Key(nil), c.X.RF.Pairs(), c.X.CO.Pairs())
}

// TestPrecheckStreamsAgree: over the corpus, the concatenated shard
// streams of SearchShards at 1 and 4 workers are exactly the sequential
// Search stream.
func TestPrecheckStreamsAgree(t *testing.T) {
	for name, p := range precheckCorpus(t) {
		var want []string
		if err := p.Search(context.Background(), Request{}, func(c *Candidate) bool {
			want = append(want, candidateKey(c))
			return true
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			parts, err := SearchShards(context.Background(), p, Request{Workers: workers}, func() func(Walk) []string {
				return func(walk Walk) []string {
					var out []string
					walk(func(c *Candidate) bool {
						out = append(out, candidateKey(c))
						return true
					})
					return out
				}
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			var got []string
			for _, part := range parts {
				got = append(got, part...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: %d candidates differ from the sequential %d", name, workers, len(got), len(want))
			}
		}
	}
}

// freshBuilderTraces is the reference for ThreadTraces: the same
// recursion over read-value vectors, with a fresh isa.Builder per run, so
// no trace can share a buffer with another.
func freshBuilderTraces(t *testing.T, p *Program, tid int) []Trace {
	t.Helper()
	regInit := map[string]int{}
	for k, v := range p.Test.RegInit {
		if k.Tid == tid {
			enc, err := p.encode(v)
			if err != nil {
				t.Fatal(err)
			}
			regInit[k.Reg] = enc
		}
	}
	var out []Trace
	var vals []int
	var rec func()
	rec = func() {
		b := &isa.Builder{}
		idx, needMore := 0, false
		env := isa.Env{LocOf: p.locOf, ReadVal: func(string) (int, bool) {
			if idx < len(vals) {
				idx++
				return vals[idx-1], true
			}
			needMore = true
			return 0, false
		}}
		final, err := isa.Run(b, tid, p.Threads[tid], regInit, env)
		if err == nil {
			out = append(out, Trace{Events: b.Events, IICO: b.IICO, IICOAddr: b.IICOAddr,
				IICOData: b.IICOData, RFReg: b.RFReg, FinalRegs: final})
			return
		}
		if err != isa.ErrInfeasible || !needMore {
			t.Fatal(err)
		}
		for _, v := range p.domain {
			vals = append(vals, v)
			rec()
			vals = vals[:len(vals)-1]
		}
	}
	rec()
	return out
}

// TestThreadTracesOwnTheirBuffers: the traces ThreadTraces builds through
// one reused builder equal, field by field, the traces of a fresh builder
// per run — so no later run wrote into an earlier trace — and stay equal
// after another enumeration of the same thread. No two traces share a
// backing array either, so a write through one can never show in another.
func TestThreadTracesOwnTheirBuffers(t *testing.T) {
	multi := 0
	for name, p := range precheckCorpus(t) {
		for tid := range p.Threads {
			got, err := p.ThreadTraces(tid)
			if err != nil {
				t.Fatalf("%s P%d: %v", name, tid, err)
			}
			want := freshBuilderTraces(t, p, tid)
			if _, err := p.ThreadTraces(tid); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s P%d: %d traces, want %d", name, tid, len(got), len(want))
			}
			if len(got) > 1 {
				multi++
			}
			owner := map[uintptr]string{} // backing array -> the trace field holding it
			for i, g := range got {
				for _, f := range []struct {
					field string
					v     any
				}{
					{"Events", g.Events}, {"IICO", g.IICO}, {"IICOAddr", g.IICOAddr},
					{"IICOData", g.IICOData}, {"RFReg", g.RFReg}, {"FinalRegs", g.FinalRegs},
				} {
					v := reflect.ValueOf(f.v)
					if v.Len() == 0 {
						continue
					}
					here := fmt.Sprintf("trace %d %s", i, f.field)
					if prev, dup := owner[v.Pointer()]; dup {
						t.Fatalf("%s P%d: %s shares its buffer with %s", name, tid, here, prev)
					}
					owner[v.Pointer()] = here
				}
			}
			for i := range want {
				g, w := got[i], want[i]
				for _, f := range []struct {
					field     string
					got, want any
				}{
					{"Events", g.Events, w.Events},
					{"IICO", g.IICO, w.IICO},
					{"IICOAddr", g.IICOAddr, w.IICOAddr},
					{"IICOData", g.IICOData, w.IICOData},
					{"RFReg", g.RFReg, w.RFReg},
					{"FinalRegs", g.FinalRegs, w.FinalRegs},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Fatalf("%s P%d trace %d: %s differs from a fresh builder's:\n got %v\nwant %v",
							name, tid, i, f.field, f.got, f.want)
					}
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no thread with several traces: the test would not see aliasing")
	}
}
