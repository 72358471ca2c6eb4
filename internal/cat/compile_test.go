package cat_test

// Differential tests for the compiled cat evaluator (compile.go): the AST
// interpreter is the reference implementation, and the compiled form must
// be observationally identical — byte-identical simulation outcomes over
// the litmus corpus for every embedded model, identical per-candidate
// verdicts for randomly generated programs, and identical (error, not
// panic) behaviour on models that fail to evaluate. Each runs twice: at
// the production specialisation threshold, and with every skeleton
// specialised from its first candidate, so the residual programs are
// pinned to the interpreter too.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

// corpusTests parses every litmus file in testdata/litmus, and the copies
// in testdata/padded whose executions span two words.
func corpusTests(t *testing.T) []*litmus.Test {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/litmus/*.litmus")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no litmus corpus: %v", err)
	}
	padded, err := filepath.Glob("../../testdata/padded/*.litmus")
	if err != nil || len(padded) == 0 {
		t.Fatalf("no padded corpus: %v", err)
	}
	paths = append(paths, padded...)
	var tests []*litmus.Test
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		tst, err := litmus.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if filepath.Base(filepath.Dir(p)) == "padded" {
			tst.Name += " (padded)"
		}
		tests = append(tests, tst)
	}
	return tests
}

// specGates are the two thresholds the differentials run at: production
// (few skeletons are specialised) and eager (every skeleton is).
var specGates = []struct {
	name  string
	after int
}{{"production", cat.ProductionSpecialiseAfter}, {"eager", 0}}

// atGate runs f with the specialisation threshold set to after.
func atGate(after int, f func()) {
	defer cat.SpecialiseAfter(after)()
	f()
}

func outcomeBytes(t *testing.T, p *exec.Program, checker sim.Checker, workers int) []byte {
	t.Helper()
	out, err := sim.Simulate(context.Background(), sim.Request{
		Program: p,
		Checker: checker,
		Options: sim.Options{Workers: workers},
	})
	if err != nil {
		t.Fatalf("%s: %v", checker.Name(), err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCompiledEquivalenceZoo: for every embedded cat model and every corpus
// test, the compiled evaluator's simulation outcome is byte-identical to
// the interpreter's, at 1 and 4 workers (the candidate stream itself is
// worker-count-invariant, so this pins the whole pipeline), at both
// specialisation thresholds. The padded copies run the multi-word
// kernels through residual programs too.
func TestCompiledEquivalenceZoo(t *testing.T) {
	tests := corpusTests(t)
	for _, name := range cat.BuiltinNames() {
		m, err := cat.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Compiled(); err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			for _, tst := range tests {
				p, err := exec.Compile(tst)
				if err != nil {
					t.Fatalf("%s: %v", tst.Name, err)
				}
				want := outcomeBytes(t, p, m.Interpreted(), 1)
				for _, g := range specGates {
					atGate(g.after, func() {
						for _, workers := range []int{1, 4} {
							got := outcomeBytes(t, p, m, workers)
							if string(got) != string(want) {
								t.Errorf("%s @%d workers, %s: compiled outcome diverges\n got %s\nwant %s",
									tst.Name, workers, g.name, got, want)
							}
						}
					})
				}
			}
		})
	}
}

// TestCompiledDemandProbes: for every dynamic builtin b, the probe model
// "empty b" is checked compiled against interpreted over the corpus, so a
// demand that under-derives any one builtin fails here, although no
// builtin model reads coi or fri. The corpus has every builtin non-empty
// somewhere: coi in coWW, fri in coRW1, sw in mp+rel+acq.
func TestCompiledDemandProbes(t *testing.T) {
	var progs []*exec.Program
	for _, tst := range corpusTests(t) {
		p, err := exec.Compile(tst)
		if err != nil {
			t.Fatalf("%s: %v", tst.Name, err)
		}
		progs = append(progs, p)
	}
	for _, b := range []string{"rf", "rfe", "rfi", "sw", "co", "coe", "coi", "fr", "fre", "fri", "com"} {
		m := cat.MustCompile(fmt.Sprintf("\"probe %s\"\nempty %s as probe\n", b, b))
		for _, p := range progs {
			sameVerdicts(t, m, p, b+" on "+p.Test.Name)
		}
	}
}

// randModel generates a random (valid) cat program exercising the lowering:
// static and dynamic bindings, recursive groups, shadowing, every operator,
// hoistable static subexpressions, and checks of every kind.
func randModel(t *testing.T, rng *rand.Rand) *cat.Model {
	t.Helper()
	return randModelWith(t, rng, genPlain)
}

// genMode selects what randModelWith generates beyond randModel's mix.
type genMode uint8

const (
	genPlain genMode = iota
	// genRich: expressions also complement, and recursive groups are more
	// frequent and half of them place their members under ~ or on the
	// right of \, so they are not monotone and may not converge.
	genRich
	// genStatic: static builtins only, so every let, let rec and check
	// lowers to the static program; reflexive checks too, and in one
	// program of four a let rec that does not converge wherever po is
	// non-empty.
	genStatic
)

// randModelWith is randModel in the given mode.
func randModelWith(t *testing.T, rng *rand.Rand, mode genMode) *cat.Model {
	t.Helper()
	rich, static := mode == genRich, mode == genStatic
	staticAtoms := []string{"po", "po-loc", "id", "addr", "data", "ctrl", "sync", "lwsync", "dmb", "0"}
	dynAtoms := []string{"rf", "rfe", "rfi", "co", "coe", "coi", "fr", "fre", "fri", "com", "sw"}
	defined := []string{}
	atom := func() string {
		r := rng.Intn(10)
		switch {
		case r < 4 && len(defined) > 0:
			return defined[rng.Intn(len(defined))]
		case r < 7 && !static:
			return dynAtoms[rng.Intn(len(dynAtoms))]
		default:
			return staticAtoms[rng.Intn(len(staticAtoms))]
		}
	}
	var genExpr func(depth int) string
	genExpr = func(depth int) string {
		if depth <= 0 {
			return atom()
		}
		ops := 8
		if rich {
			ops = 9
		}
		switch rng.Intn(ops) {
		case 0:
			return "(" + genExpr(depth-1) + " | " + genExpr(depth-1) + ")"
		case 1:
			return "(" + genExpr(depth-1) + " & " + genExpr(depth-1) + ")"
		case 2:
			return "(" + genExpr(depth-1) + " ; " + genExpr(depth-1) + ")"
		case 3:
			return "(" + genExpr(depth-1) + " \\ " + genExpr(depth-1) + ")"
		case 4:
			return "(" + genExpr(depth-1) + ")+"
		case 5:
			return "(" + genExpr(depth-1) + ")?"
		case 6:
			dirs := []string{"RR", "RW", "WR", "WW", "WM", "MM"}
			return dirs[rng.Intn(len(dirs))] + "(" + genExpr(depth-1) + ")"
		case 8:
			return "~(" + genExpr(depth-1) + ")"
		default:
			return atom()
		}
	}
	var b strings.Builder
	b.WriteString("\"random\"\n")
	nLets := 2 + rng.Intn(4)
	diverge := -1 // the static mode's non-convergent group goes before this let
	if static && rng.Intn(4) == 0 {
		diverge = rng.Intn(nLets)
	}
	for i := 0; i < nLets; i++ {
		if i == diverge {
			// From ∅, dv alternates between its seed and ∅.
			b.WriteString("let rec dv = (~dv & (po | " + genExpr(1) + "))\n")
			defined = append(defined, "dv")
		}
		name := string(rune('a' + i))
		if rng.Intn(4) == 0 || rich && rng.Intn(2) == 0 {
			// A recursive group; unless rich, keep the bodies
			// union-shaped so the fixpoint is monotone and converges.
			peer := name + "x"
			if rich && rng.Intn(2) == 0 {
				b.WriteString("let rec " + name + " = ((" + genExpr(1) + " \\ " + peer + ") | (" + name + " ; " + name + "))")
				b.WriteString(" and " + peer + " = ((" + genExpr(1) + " & ~" + name + ") | " + genExpr(1) + ")\n")
			} else {
				b.WriteString("let rec " + name + " = (" + genExpr(1) + " | (" + name + " ; " + name + ") | " + peer + ")")
				b.WriteString(" and " + peer + " = (" + genExpr(1) + " | " + name + ")\n")
			}
			defined = append(defined, name, peer)
		} else {
			b.WriteString("let " + name + " = " + genExpr(2) + "\n")
			defined = append(defined, name)
		}
	}
	nChecks := 1 + rng.Intn(3)
	kinds := []string{"acyclic", "irreflexive", "empty"}
	if static {
		kinds = append(kinds, "reflexive")
	}
	for i := 0; i < nChecks; i++ {
		b.WriteString(kinds[rng.Intn(len(kinds))] + " " + genExpr(2) + "\n")
	}
	m, err := cat.Compile(b.String())
	if err != nil {
		t.Fatalf("generated program does not compile: %v\n%s", err, b.String())
	}
	return m
}

// TestCompiledEquivalenceRandom: per-candidate differential check of the
// compiled evaluator against the interpreter over randomly generated
// programs. Seeded, so failures reproduce.
func TestCompiledEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA7))
	entryNames := []string{"mp", "sb", "lb", "iriw", "2+2w", "s", "wrc"}
	var progs []*exec.Program
	for _, n := range entryNames {
		e, ok := catalog.ByName(n)
		if !ok {
			t.Fatalf("catalog test %q missing", n)
		}
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	// A release/acquire pair, so sw is not empty.
	p, err := exec.Compile(litmus.MustParse(`C mp-rel-acq
{ }
 P0 | P1 ;
 atomic_store_explicit(x, 1, relaxed) | r1 = atomic_load_explicit(y, acquire) ;
 atomic_store_explicit(y, 1, release) | r2 = atomic_load_explicit(x, relaxed) ;
exists (1:r1=1 /\ 1:r2=0)`))
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, p)
	for i := 0; i < 40; i++ {
		m := randModel(t, rng)
		for _, g := range specGates {
			atGate(g.after, func() { sameVerdicts(t, m, progs[i%len(progs)], fmt.Sprintf("program %d, %s", i, g.name)) })
		}
	}

	// Static-only programs pin the lowered static program, divergence
	// included: a candidate errs compiled iff it errs interpreted, with
	// the same message. Their dynamic program is empty, so the
	// specialisation threshold does not matter.
	rng = rand.New(rand.NewSource(0x57A71C))
	erred, fine := 0, 0
	for i := 0; i < 32; i++ {
		m := randModelWith(t, rng, genStatic)
		e, n := sameVerdicts(t, m, progs[i%len(progs)], fmt.Sprintf("static program %d", i))
		erred, fine = erred+e, fine+n-e
	}
	if erred == 0 || fine == 0 {
		t.Fatalf("static programs: %d candidates erred, %d did not; want both", erred, fine)
	}
}

// sameVerdicts checks every candidate of p with the interpreter and with
// one compiled evaluator, and fails on any difference in verdict, failed
// checks or error. The evaluator gets the candidates deferred, as sim
// hands them over, and derives what it reads; the interpreter checks a
// fully derived clone. It returns how many candidates erred, of how many.
func sameVerdicts(t *testing.T, m *cat.Model, p *exec.Program, what string) (erred, checked int) {
	t.Helper()
	c, err := m.Compiled()
	if err != nil {
		t.Fatalf("%s: compile: %v", what, err)
	}
	ev := c.NewEvaluator()
	err = p.Search(context.Background(), exec.Request{Deferred: true}, func(cd *exec.Candidate) bool {
		got := ev.Check(cd.X)
		want := m.Check(cd.Clone().X)
		checked++
		if (want.Err != nil) != (got.Err != nil) || want.Err != nil && want.Err.Error() != got.Err.Error() {
			t.Fatalf("%s: error divergence: interp=%v compiled=%v", what, want.Err, got.Err)
		}
		if want.Err != nil {
			erred++
		}
		if want.Valid != got.Valid ||
			strings.Join(want.FailedChecks, ",") != strings.Join(got.FailedChecks, ",") {
			t.Fatalf("%s: verdict divergence: interp=%+v compiled=%+v", what, want, got)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return erred, checked
}

// TestNonConvergenceIsError: a model whose let rec oscillates must surface
// as an error from Check (interpreted and compiled) and from Simulate —
// never as a panic escaping into the caller's goroutine. This is the
// regression test for cat evaluation panics leaking into herdd request
// handlers. A specialising evaluator finds the group's abstract iteration
// divergent too, and keeps the generic program.
func TestNonConvergenceIsError(t *testing.T) {
	// ~bad & rf oscillates between ∅ and rf on any candidate with a
	// non-empty rf: complement is not monotone, so Kleene iteration never
	// settles.
	m, err := cat.Compile("\"diverge\"\nlet rec bad = ~bad & rf\nacyclic bad | po\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range specGates {
		atGate(g.after, func() { nonConvergence(t, m) })
	}
}

func nonConvergence(t *testing.T, m *cat.Model) {
	t.Helper()
	e, _ := catalog.ByName("mp")
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
		res := m.Check(cd.X)
		if res.Err == nil {
			return true // rf-less candidates converge; keep looking
		}
		sawErr = true
		if res.Valid || len(res.FailedChecks) != 0 {
			t.Errorf("error result carries a verdict: %+v", res)
		}
		if !strings.Contains(res.Err.Error(), "did not converge") {
			t.Errorf("unexpected error: %v", res.Err)
		}
		// The compiled evaluator must fail identically.
		cres := m.NewEvaluator().Check(cd.X)
		if cres.Err == nil || !strings.Contains(cres.Err.Error(), "did not converge") {
			t.Errorf("compiled evaluator: want convergence error, got %+v", cres)
		}
		// And Explain must surface the same failure as an error.
		if _, xerr := m.Explain(cd.X); xerr == nil {
			t.Error("Explain: want error, got nil")
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawErr {
		t.Fatal("no candidate triggered the divergence")
	}

	// End to end: Simulate aborts the search and returns the error — also
	// when the divergence is met inside a shard on a worker goroutine.
	for _, workers := range []int{1, 4} {
		if _, serr := sim.Simulate(context.Background(), sim.Request{
			Program: p,
			Checker: m,
			Options: sim.Options{Workers: workers},
		}); serr == nil || !strings.Contains(serr.Error(), "did not converge") {
			t.Fatalf("Simulate workers=%d: want convergence error, got %v", workers, serr)
		}
	}
}

// TestCompiledStandaloneExecutions: the evaluator works on executions that
// carry no skeleton Base pointer (rebinding the static program per call)
// and survives being reused across different programs.
func TestCompiledStandaloneExecutions(t *testing.T) {
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	ev := c.NewEvaluator()
	for _, name := range []string{"mp", "sb", "mp+lwsync+addr"} {
		e, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("catalog test %q missing", name)
		}
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
			want := m.Check(cd.X)
			got := ev.Check(cd.X)
			if want.Valid != got.Valid {
				t.Fatalf("%s: verdict divergence: interp=%+v compiled=%+v", name, want, got)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
