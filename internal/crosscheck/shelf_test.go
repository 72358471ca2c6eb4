package crosscheck_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/crosscheck"
	"herdcats/internal/experiments"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/shelf from the deciders' current verdicts")

// shelfDir holds the committed shelves: the verdict and count shelves,
// one file each per dialect, and the observed shelf.
var shelfDir = filepath.Join("..", "..", "testdata", "shelf")

// shelfTests returns a dialect's shelf tests in shelf order: its
// catalogue tests, then the diy corpus of -run table5 (lengths 3-4).
func shelfTests(arch litmus.Arch) []*litmus.Test {
	var tests []*litmus.Test
	for _, e := range catalog.Tests() {
		if test := e.Test(); test.Arch == arch {
			tests = append(tests, test)
		}
	}
	if arch == litmus.X86 {
		return tests
	}
	return append(tests, experiments.BuildCorpus(arch, 3, 4, 0).Tests...)
}

// shelf renders a dialect's shelf: a header naming the columns (the
// deciders of Pairs(arch), sorted), then one line per test giving each
// decider's verdict under ComparePairs over the whole table: 1 allowed,
// 0 forbidden, E failed. The whole table runs on every test, the
// machine, the SAT encodings, the zoo and the hardware included: the
// 3000-odd tests take about 2 s on 2 vCPUs.
func shelf(t *testing.T, arch litmus.Arch) string {
	t.Helper()
	pairs := crosscheck.Pairs(arch)
	var columns []string
	for _, p := range pairs {
		for _, name := range []string{p.A.Name(), p.B.Name()} {
			if !slices.Contains(columns, name) {
				columns = append(columns, name)
			}
		}
	}
	slices.Sort(columns)

	var b strings.Builder
	fmt.Fprintf(&b, "# Verdict shelf, %s: each decider's verdict under crosscheck.ComparePairs\n", arch)
	b.WriteString("# (1 allowed, 0 forbidden, E failed). Regenerate with\n")
	b.WriteString("# go test ./internal/crosscheck -run TestVerdictShelf -update\n")
	for i, name := range columns {
		fmt.Fprintf(&b, "# column %d: %s\n", i+1, name)
	}
	for _, line := range verdictLines(t, shelfTests(arch), pairs, columns) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// observedShelf renders the observed shelf, the analogue of herdtools7's
// *.observed: for the PPC and then the ARM shelf tests, a header naming
// the machines of the dialect's hardware family, then one line per test
// giving each machine's verdict as crosscheck.Hardware: 1 observed, 0
// unseen, E failed. Each machine is paired with itself, so ComparePairs
// decides them all over one walk and asserts nothing between them.
func observedShelf(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Observed shelf: each simulated machine's verdict as crosscheck.Hardware\n")
	b.WriteString("# (1 observed, 0 unseen, E failed). Regenerate with\n")
	b.WriteString("# go test ./internal/crosscheck -run TestObservedShelf -update\n")
	for _, d := range []struct {
		arch   litmus.Arch
		family hardware.Arch
	}{{litmus.PPC, hardware.Power}, {litmus.ARM, hardware.ARM}} {
		var pairs []crosscheck.Pair
		var columns []string
		for _, m := range hardware.ByArch(d.family) {
			hw := crosscheck.Hardware(m)
			pairs = append(pairs, crosscheck.Pair{A: hw, B: hw, Rel: crosscheck.Subset})
			columns = append(columns, hw.Name())
		}
		fmt.Fprintf(&b, "# %s columns: %s\n", d.arch, strings.Join(columns, " "))
		for _, line := range verdictLines(t, shelfTests(d.arch), pairs, columns) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// verdictLines runs ComparePairs over pairs on every test, one test per
// goroutine at a time, and renders one line per test: its name, then one
// cell per column (a decider name): 1 allowed, 0 forbidden, E failed.
func verdictLines(t *testing.T, tests []*litmus.Test, pairs []crosscheck.Pair, columns []string) []string {
	t.Helper()
	lines := make([]string, len(tests))
	errs := make([]error, len(tests))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := crosscheck.ComparePairs(context.Background(), tests[i], pairs...)
				if err != nil {
					errs[i] = err
					continue
				}
				cells := make([]byte, len(columns))
				for _, v := range rep.Verdicts {
					c := byte('0')
					switch {
					case v.Err != "":
						c = 'E'
					case v.Allowed:
						c = '1'
					}
					cells[slices.Index(columns, v.Decider)] = c
				}
				lines[i] = tests[i].Name + " " + string(cells)
			}
		}()
	}
	for i := range tests {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", tests[i].Name, err)
		}
	}
	return lines
}

// TestVerdictShelf re-derives the committed verdict shelf and diffs it:
// every decider of each dialect's pair table, over the catalogue and the
// diy corpora of Tab. V, must give the recorded verdict. Only -update
// rewrites the shelf.
func TestVerdictShelf(t *testing.T) {
	for _, arch := range []litmus.Arch{litmus.PPC, litmus.ARM, litmus.X86} {
		t.Run(string(arch), func(t *testing.T) {
			diffShelf(t, strings.ToLower(string(arch))+".verdicts", shelf(t, arch))
		})
	}
}

// TestObservedShelf re-derives the committed observed shelf and diffs it:
// every simulated machine, over its dialect's catalogue tests and the diy
// corpus of Tab. V, must observe exactly the recorded tests. Only -update
// rewrites the shelf.
func TestObservedShelf(t *testing.T) {
	diffShelf(t, "hw.observed", observedShelf(t))
}

// diffShelf diffs got against the shelf file name line by line, after
// rewriting the file with got under -update.
func diffShelf(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(shelfDir, name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(data), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%s: %d lines, shelf has %d", path, len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] == wantLines[i] {
			continue
		}
		if diffs++; diffs <= 20 {
			t.Errorf("%s:%d: got %q, shelf has %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if diffs > 20 {
		t.Errorf("%s: %d lines differ in all", path, diffs)
	}
}

// countModels are the builtin cat models whose valid counts a dialect's
// count shelf records.
var countModels = map[litmus.Arch][]string{
	litmus.PPC: {"sc", "tso", "power", "power-arm", "power-cav", "power-nodetour"},
	litmus.ARM: {"sc", "tso", "arm", "arm-llh", "arm-nodetour", "power-arm"},
	litmus.X86: {"sc", "tso"},
}

// countShelf renders a dialect's count shelf: a header naming the
// columns, then one line per shelf test giving its candidate count and,
// for each of the dialect's builtin cat models, how many of them the
// model finds valid (E when the model fails on the test). Whole-test
// verdicts are almost all forbidden, so these counts are what sees a
// candidate stream or a skeleton going wrong. Each count is one
// sim.Simulate on the test, which compiles the test itself.
func countShelf(t *testing.T, arch litmus.Arch) string {
	t.Helper()
	names := countModels[arch]
	checkers := make([]sim.Checker, len(names))
	for i, name := range names {
		checkers[i] = cat.MustBuiltin(name)
	}
	tests := shelfTests(arch)
	lines := make([]string, len(tests))
	errs := make([]error, len(tests))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cands := -1
				cells := make([]string, len(checkers))
				for k, ck := range checkers {
					out, err := sim.Simulate(context.Background(), sim.Request{Test: tests[i], Checker: ck})
					switch {
					case err != nil:
						cells[k] = "E"
						continue
					case out.Incomplete:
						errs[i] = fmt.Errorf("%s under %s: incomplete: %v", tests[i].Name, names[k], out.Reason)
					case cands >= 0 && out.Candidates != cands:
						errs[i] = fmt.Errorf("%s: %d candidates under %s, %d before", tests[i].Name, out.Candidates, names[k], cands)
					}
					cands = out.Candidates
					cells[k] = fmt.Sprint(out.Valid)
				}
				lines[i] = fmt.Sprintf("%s %d %s", tests[i].Name, cands, strings.Join(cells, " "))
			}
		}()
	}
	for i := range tests {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Count shelf, %s: each test's candidate count, then how many candidates\n", arch)
	b.WriteString("# each builtin cat model finds valid under sim.Simulate (E failed). Regenerate with\n")
	b.WriteString("# go test ./internal/crosscheck -run TestCountShelf -update\n")
	fmt.Fprintf(&b, "# columns: candidates %s\n", strings.Join(names, " "))
	for _, line := range lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCountShelf re-derives the committed count shelf and diffs it: over
// the catalogue and the diy corpora of Tab. V, each test's candidate
// count and every builtin model's valid count must be the recorded ones.
// Only -update rewrites the shelf.
func TestCountShelf(t *testing.T) {
	for _, arch := range []litmus.Arch{litmus.PPC, litmus.ARM, litmus.X86} {
		t.Run(string(arch), func(t *testing.T) {
			diffShelf(t, strings.ToLower(string(arch))+".counts", countShelf(t, arch))
		})
	}
}
