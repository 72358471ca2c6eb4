package cat

// Reuse differentials: an evaluator's storage outlives the evaluator
// (Release puts it in its Compiled's pool), so one storage judges test
// after test, of every size. These tests hand one storage from test to
// test, unbinding it between them as Release does, and require it to
// answer exactly as fresh storage does, through Check and through Lower.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// reuseCorpus is a sample of the verdict shelf's diy tests (the PPC and
// ARM cycles of length 3 and 4), compiled, in an order where the size
// alternately grows and shrinks: smallest, largest, next smallest, ...
func reuseCorpus(t *testing.T) []*exec.Program {
	t.Helper()
	var progs []*exec.Program
	for _, d := range []struct {
		arch litmus.Arch
		pool []diy.Edge
	}{{litmus.PPC, diy.PowerPool()}, {litmus.ARM, diy.ARMPool()}} {
		i := 0
		diy.Enumerate(d.pool, 3, 4, func(cy diy.Cycle) bool {
			test, err := diy.Generate(d.arch, cy)
			if err != nil {
				return true
			}
			if i++; i%11 == 0 {
				p, err := exec.Compile(test)
				if err != nil {
					t.Fatalf("%s: %v", test.Name, err)
				}
				progs = append(progs, p)
			}
			return true
		})
	}
	size := func(p *exec.Program) int {
		n := 0
		for _, th := range p.Threads {
			n += len(th)
		}
		return n
	}
	slices.SortStableFunc(progs, func(a, b *exec.Program) int { return size(a) - size(b) })
	zigzag := make([]*exec.Program, 0, len(progs))
	for lo, hi := 0, len(progs)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		zigzag = append(zigzag, progs[lo])
		if lo != hi {
			zigzag = append(zigzag, progs[hi])
		}
	}
	return zigzag
}

// TestReusedEvaluatorMatchesFresh: for every builtin model, one storage
// checks every candidate of the reuse corpus, test after test, and each
// result (validity, failed checks, error) equals a fresh evaluator's on
// the same candidate, at the production and the eager specialisation
// threshold. The corpus order makes the universe size both grow and
// shrink between consecutive tests, which the test confirms.
func TestReusedEvaluatorMatchesFresh(t *testing.T) {
	progs := reuseCorpus(t)
	for _, gate := range []int{specialiseAfter, 0} {
		reuseAtGate(t, progs, gate)
	}
}

// reuseAtGate is TestReusedEvaluatorMatchesFresh at one specialisation
// threshold.
func reuseAtGate(t *testing.T, progs []*exec.Program, gate int) {
	defer func(restore int) { specGate = restore }(specGate)
	specGate = gate
	for _, name := range BuiltinNames() {
		c, err := MustBuiltin(name).Compiled()
		if err != nil {
			t.Fatal(err)
		}
		st := c.newStorage()
		grew, shrank, last := false, false, -1
		for _, p := range progs {
			reused, fresh := &Evaluator{c: c, e: st}, &Evaluator{c: c, e: c.newStorage()}
			err := p.Search(context.Background(), exec.Request{Deferred: true}, func(cd *exec.Candidate) bool {
				if n := cd.X.N(); last >= 0 && n != last {
					grew, shrank = grew || n > last, shrank || n < last
				}
				last = cd.X.N()
				got, want := reused.Check(cd.X), fresh.Check(cd.X)
				if got.Valid != want.Valid || !slices.Equal(got.FailedChecks, want.FailedChecks) || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
					t.Fatalf("%s, gate %d, %s: reused storage %+v, fresh %+v", name, gate, p.Test.Name, got, want)
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s: %v", p.Test.Name, err)
			}
			st = reused.detach()
		}
		if !grew || !shrank {
			t.Fatalf("%s: the corpus never made the universe grow (%v) and shrink (%v)", name, grew, shrank)
		}
	}
}

// TestReusedLowerMatchesFresh: for every builtin model Lower accepts, one
// storage lowers each test of the reuse corpus in turn, and the run it
// makes — every gate it builds, every assertion, the static verdict and
// any error — equals the run over fresh storage.
func TestReusedLowerMatchesFresh(t *testing.T) {
	progs := reuseCorpus(t)
	var skeletons []*events.Skeleton
	for _, p := range progs {
		err := p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
			skeletons = append(skeletons, cd.Clone().X.Skeleton)
			return false
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Test.Name, err)
		}
	}
	lowered := 0
	for _, name := range BuiltinNames() {
		c, err := MustBuiltin(name).Compiled()
		if err != nil {
			t.Fatal(err)
		}
		if c.lowerable() != nil {
			continue
		}
		lowered++
		st := c.newStorage()
		for i, x := range skeletons {
			got, want := &transcript{ids: map[string]int{}}, &transcript{ids: map[string]int{}}
			gotOK, gotErr := lower(st, x, Gates[int](got))
			wantOK, wantErr := lower(c.newStorage(), x, Gates[int](want))
			st.unbind()
			if gotOK != wantOK || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, %s: reused storage (%v, %v), fresh (%v, %v)", name, progs[i].Test.Name, gotOK, gotErr, wantOK, wantErr)
			}
			if g, w := got.String(), want.String(); g != w {
				t.Fatalf("%s, %s: reused storage lowers\n%s\nfresh storage\n%s", name, progs[i].Test.Name, g, w)
			}
		}
	}
	if lowered == 0 {
		t.Fatal("no builtin model was lowered")
	}
}

// transcript is a Gates that records the run made over it: each distinct
// gate as a numbered line, hash-consed so a shared operand is named once,
// and each assertion.
type transcript struct {
	ids   map[string]int
	lines []string
}

func (tr *transcript) node(format string, args ...any) int {
	s := fmt.Sprintf(format, args...)
	if id, ok := tr.ids[s]; ok {
		return id
	}
	id := len(tr.ids)
	tr.ids[s] = id
	tr.lines = append(tr.lines, fmt.Sprintf("n%d = %s", id, s))
	return id
}

func (tr *transcript) assert(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func (tr *transcript) String() string { return strings.Join(tr.lines, "\n") }

func (tr *transcript) Const(r rel.Rel) int  { return tr.node("const %v", r.Pairs()) }
func (tr *transcript) Dyn(d events.Dyn) int { return tr.node("dyn %#x", d) }
func (tr *transcript) Union(a, b int) int   { return tr.node("n%d | n%d", a, b) }
func (tr *transcript) Inter(a, b int) int   { return tr.node("n%d & n%d", a, b) }
func (tr *transcript) Compl(a int) int      { return tr.node("~n%d", a) }
func (tr *transcript) Seq(a, b int) int     { return tr.node("n%d ; n%d", a, b) }
func (tr *transcript) Star(a int) int       { return tr.node("n%d*", a) }
func (tr *transcript) Within(a, b int)      { tr.assert("n%d within n%d", a, b) }
func (tr *transcript) Acyclic(a int)        { tr.assert("acyclic n%d", a) }
func (tr *transcript) Irreflexive(a int)    { tr.assert("irreflexive n%d", a) }
func (tr *transcript) Empty(a int)          { tr.assert("empty n%d", a) }
func (tr *transcript) Fresh(lo, hi rel.Rel) int {
	return tr.node("fresh %d %v %v", len(tr.ids), lo.Pairs(), hi.Pairs())
}

// TestReusedStorageAfterComplement: a specialisation's abstract run swaps
// register headers between its two files at each ~, so after an odd
// number of runs the register file and the upper bound file hold each
// other's buffers. Storage that specialised one skeleton of n events,
// then judged a smaller test without specialising, then specialises
// n-event skeletons again must not have its two files share a buffer:
// each verdict equals fresh storage's, for models that complement
// dynamic relations.
func TestReusedStorageAfterComplement(t *testing.T) {
	big, small := diyProgram(t, "PodWW Rfe PodRR Fre PodWW Rfe PodRR Fre"), diyProgram(t, "PodWR Fre PodWR Fre")
	for _, src := range []string{
		`"compl-fr" let a = ~fr & po-loc acyclic a | rf | co as c irreflexive (~(rf | co) & po) ; fr as d`,
		`"compl-com" let b = ~(com | po) acyclic (po & b) | com as c empty ~(~rf) & rf & po as d`,
	} {
		c, err := MustCompile(src).Compiled()
		if err != nil {
			t.Fatal(err)
		}
		st := c.newStorage()
		for _, step := range []struct {
			p     *exec.Program
			gate  int
			first bool // judge the first candidate only
		}{{big, 0, true}, {small, 1 << 30, false}, {big, 0, false}} {
			func() {
				defer func(restore int) { specGate = restore }(specGate)
				specGate = step.gate
				reused, fresh := &Evaluator{c: c, e: st}, &Evaluator{c: c, e: c.newStorage()}
				err := step.p.Search(context.Background(), exec.Request{Deferred: true}, func(cd *exec.Candidate) bool {
					got, want := reused.Check(cd.X), fresh.Check(cd.X)
					if got.Valid != want.Valid || !slices.Equal(got.FailedChecks, want.FailedChecks) || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
						t.Fatalf("%s, %s: reused storage %+v, fresh %+v", c.Name(), step.p.Test.Name, got, want)
					}
					return !step.first
				})
				if err != nil {
					t.Fatal(err)
				}
				st = reused.detach()
			}()
		}
	}
}

// diyProgram compiles the PPC test of a diy cycle.
func diyProgram(t *testing.T, cycle string) *exec.Program {
	t.Helper()
	cy, err := diy.ParseCycle(cycle)
	if err != nil {
		t.Fatal(err)
	}
	test, err := diy.Generate(litmus.PPC, cy)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReleasedEvaluatorPanics: once released, an evaluator never answers
// again, whoever takes its storage next: Check, Release and a Reader's
// Values panic.
func TestReleasedEvaluatorPanics(t *testing.T) {
	p := diyProgram(t, "PodWR Fre PodWR Fre")
	var x *events.Execution
	err := p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
		x = cd.Clone().X
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := MustBuiltin("power").Compiled()
	if err != nil {
		t.Fatal(err)
	}
	ev := c.newEvaluator()
	ev.Check(x)
	ev.Release()
	next := c.newEvaluator() // may hold the released storage
	defer next.Release()
	r, err := c.Reader("ppo")
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	for name, use := range map[string]func(){
		"Check":   func() { ev.Check(x) },
		"Release": ev.Release,
		"Values":  func() { r.Values(x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use()
		}()
	}
	if res := next.Check(x); res.Err != nil {
		t.Fatalf("the evaluator after a released one: %v", res.Err)
	}
}
