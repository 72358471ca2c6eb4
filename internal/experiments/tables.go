// Package experiments regenerates the tables of the paper's evaluation
// (Sec. 8–9). Each Table function returns structured results plus a text
// rendering; cmd/cats-experiments drives them and EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"herdcats/internal/campaign"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
)

// Corpus is a generated set of litmus tests for one architecture.
type Corpus struct {
	Arch  litmus.Arch
	Tests []*litmus.Test
}

// BuildCorpus enumerates diy cycles over the standard pool of the
// architecture and generates up to max tests (0 = no bound) with cycle
// lengths in [minLen, maxLen].
func BuildCorpus(arch litmus.Arch, minLen, maxLen, max int) *Corpus {
	var pool []diy.Edge
	switch arch {
	case litmus.PPC:
		pool = diy.PowerPool()
	case litmus.ARM:
		pool = diy.ARMPool()
	case litmus.X86:
		pool = diy.X86Pool()
	}
	c := &Corpus{Arch: arch}
	diy.Enumerate(pool, minLen, maxLen, func(cy diy.Cycle) bool {
		t, err := diy.Generate(arch, cy)
		if err != nil {
			return true // rejected cycle
		}
		c.Tests = append(c.Tests, t)
		return max == 0 || len(c.Tests) < max
	})
	return c
}

// --- Table V ---------------------------------------------------------------

// Table5Row is one column of Tab. V: a model confronted with a hardware
// family over a generated corpus.
type Table5Row struct {
	Arch    string
	Model   string
	Tests   int
	Invalid int // tests observed on hardware yet forbidden by the model
	Unseen  int // tests allowed by the model yet never observed
	Errors  int // tests that could not be processed (skipped, not fatal)
}

// Table5 reproduces Tab. V: corpus size, invalid and unseen counts for the
// Power model on Power machines and the Power-ARM model on ARM machines,
// plus the proposed-ARM-model row discussed in Sec. 8.1.2.
func Table5(minLen, maxLen, maxTests int) ([]Table5Row, error) {
	armCorpus := BuildCorpus(litmus.ARM, minLen, maxLen, maxTests)
	return []Table5Row{
		confront(BuildCorpus(litmus.PPC, minLen, maxLen, maxTests), "power", hardware.Power),
		confront(armCorpus, "power-arm", hardware.ARM),
		confront(armCorpus, "arm-llh", hardware.ARM),
	}, nil
}

// confront decides every corpus test under the named builtin model and on
// every machine of the family, with one crosscheck comparison per test:
// each machine's pair expects it to observe at most what the model allows
// (Sec. 8.1.1). A violated pair makes the test invalid; a test the model
// allows and no machine observes is unseen. A test that errors or panics
// is counted in Errors and skipped (sweep).
func confront(c *Corpus, model string, family hardware.Arch) Table5Row {
	m := crosscheck.MustCat(model)
	row := Table5Row{Arch: string(family), Model: cat.MustBuiltin(model).Name(), Tests: len(c.Tests)}
	pairs := hardwarePairs(m, hardware.ByArch(family))
	var mu sync.Mutex
	row.Errors = sweep(c.Tests, func(ctx context.Context, t *litmus.Test) error {
		rep, err := compare(ctx, t, pairs)
		if err != nil {
			return err
		}
		observed := slices.ContainsFunc(rep.Verdicts, func(v crosscheck.Verdict) bool {
			return v.Allowed && v.Decider != m.Name()
		})
		mu.Lock()
		defer mu.Unlock()
		switch {
		case len(rep.Disagreements) > 0:
			row.Invalid++
		case !observed && allowed(rep, m.Name()):
			row.Unseen++
		}
		return nil
	})
	return row
}

// hardwarePairs expects each machine to observe at most what model allows
// (Sec. 8.1.1); pair i is machines[i]'s.
func hardwarePairs(model crosscheck.Decider, machines []hardware.Machine) []crosscheck.Pair {
	pairs := make([]crosscheck.Pair, len(machines))
	for i, m := range machines {
		pairs[i] = crosscheck.Pair{A: crosscheck.Hardware(m), B: model, Rel: crosscheck.Subset}
	}
	return pairs
}

// compare is crosscheck.ComparePairs with a decider's failure as its error.
func compare(ctx context.Context, t *litmus.Test, pairs []crosscheck.Pair) (*crosscheck.Report, error) {
	rep, err := crosscheck.ComparePairs(ctx, t, pairs...)
	if err == nil && len(rep.Errors) > 0 {
		err = fmt.Errorf("%s: %s: %s", t.Name, rep.Errors[0].Decider, rep.Errors[0].Err)
	}
	return rep, err
}

// allowed reports the verdict rep gives the named decider.
func allowed(rep *crosscheck.Report, decider string) bool {
	i := slices.IndexFunc(rep.Verdicts, func(v crosscheck.Verdict) bool { return v.Decider == decider })
	return i >= 0 && rep.Verdicts[i].Allowed
}

// sweep judges every test on the campaign pool. A test whose judge fails
// or panics is counted, never fatal: the sweep goes on, and returns how
// many tests failed.
func sweep(tests []*litmus.Test, judge func(ctx context.Context, t *litmus.Test) error) int {
	var failed atomic.Int64
	_ = campaign.ForEach(context.Background(), 0, len(tests), func(ctx context.Context, i int) error {
		defer func() {
			if recover() != nil {
				failed.Add(1)
			}
		}()
		if judge(ctx, tests[i]) != nil {
			failed.Add(1)
		}
		return nil
	})
	return int(failed.Load())
}

// RenderTable5 formats the rows like Tab. V.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: model vs. hardware over generated corpora\n")
	fmt.Fprintf(&b, "%-28s %8s %8s %8s %8s\n", "model (hardware family)", "tests", "invalid", "unseen", "errors")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %8d %8d %8d %8d\n",
			fmt.Sprintf("%s (%s)", r.Model, r.Arch), r.Tests, r.Invalid, r.Unseen, r.Errors)
	}
	return b.String()
}

// --- Table VI --------------------------------------------------------------

// Table6Row is one line of Tab. VI: an anomaly test, the (Power-ARM) model
// verdict, and whether/how often the simulated machines exhibit it.
type Table6Row struct {
	Test     string
	Model    string // "Forbid"/"Allow" under Power-ARM
	Observed bool
	Machines []string // machines exhibiting it
	Count    string   // synthesized frequency, e.g. "10M/95G"
}

// table6Tests are the six anomaly tests of Tab. VI.
var table6Tests = []string{
	"coRR", "coRSDWI", "mp+dmb+fri-rfi-ctrlisb",
	"lb+data+fri-rfi-ctrl", "moredetour0052", "mp+dmb+pos-ctrlisb+bis",
}

// Table6 reproduces Tab. VI over the simulated ARM park. Counts are
// synthesized deterministically (we have no silicon to sample), scaled to
// the rarity classes the paper reports.
func Table6() ([]Table6Row, error) {
	model, machines := crosscheck.MustCat("power-arm"), hardware.ByArch(hardware.ARM)
	pairs := hardwarePairs(model, machines)
	var rows []Table6Row
	for _, name := range table6Tests {
		var entry catalog.Entry
		if name == "coRR" {
			// The catalogue's coRR is a PPC test; Tab. VI needs its ARM twin.
			entry = catalog.Entry{Name: name, Source: `ARM coRR-arm
{ 0:r3=x; 1:r3=x; }
 P0 | P1 ;
 ldr r1,[r3] | mov r1,#1 ;
 ldr r2,[r3] | str r1,[r3] ;
exists (0:r1=1 /\ 0:r2=0)`}
		} else {
			var ok bool
			entry, ok = catalog.ByName(name)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown table VI test %q", name)
			}
		}
		rep, err := compare(context.Background(), entry.Test(), pairs)
		if err != nil {
			return nil, err
		}
		row := Table6Row{Test: name, Model: "Forbid"}
		if allowed(rep, model.Name()) {
			row.Model = "Allow"
		}
		for i, m := range machines {
			if allowed(rep, pairs[i].A.Name()) {
				row.Observed = true
				row.Machines = append(row.Machines, m.Name)
			}
		}
		row.Count = synthFrequency(name)
		rows = append(rows, row)
	}
	return rows, nil
}

// synthFrequency produces a deterministic litmus-style "hits/runs" string
// for an anomaly; real counts require real silicon (see DESIGN.md).
func synthFrequency(test string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(test))
	v := h.Sum64()
	hits := 1 + v%500
	unit := []string{"k", "M"}[v>>32%2]
	runs := 1 + (v>>16)%90
	return fmt.Sprintf("%d%s/%dG", hits, unit, runs)
}

// RenderTable6 formats the rows like Tab. VI.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table VI: invalid observations on (simulated) ARM machines\n")
	fmt.Fprintf(&b, "%-26s %-8s %-10s %s\n", "test", "model", "machines", "frequency")
	for _, r := range rows {
		status := "unobserved"
		if r.Observed {
			status = fmt.Sprintf("Ok, %s", r.Count)
		}
		fmt.Fprintf(&b, "%-26s %-8s %-10s %s\n", r.Test, r.Model, status,
			strings.Join(r.Machines, ","))
	}
	return b.String()
}

// --- Table VIII ------------------------------------------------------------

// Table8Row classifies the invalid executions of a model on the ARM corpus
// by the set of axioms they violate (S = SC PER LOCATION, T = NO THIN AIR,
// O = OBSERVATION, P = PROPAGATION). Errors counts the corpus tests that
// could not be judged (they failed to compile or search, panicked, or a
// model failed to evaluate one of their candidates): they add nothing to
// Total or ByAxes.
type Table8Row struct {
	Model  string
	Total  int
	ByAxes map[string]int // e.g. "S", "OP", "SOP" -> count
	Errors int
}

// Table8 reproduces Tab. VIII: executions forbidden by the model yet
// observed on the simulated ARM machines, classified by violated axioms,
// for the Power-ARM model and the ARM llh model.
func Table8(minLen, maxLen, maxTests int) ([]Table8Row, error) {
	corpus := BuildCorpus(litmus.ARM, minLen, maxLen, maxTests)
	// The paper additionally classifies the named anomaly tests; include
	// the catalogue's ARM tests in the corpus.
	for _, e := range catalog.Tests() {
		if t := e.Test(); t.Arch == litmus.ARM {
			corpus.Tests = append(corpus.Tests, t)
		}
	}
	return table8(corpus.Tests, []classifier{cat.MustBuiltin("power-arm"), cat.MustBuiltin("arm-llh")}), nil
}

// classifier is a model Tab. VIII classifies invalid executions by: one
// evaluator per test judges its candidates.
type classifier interface {
	Name() string
	core.EvaluatorProvider
}

// table8 is Tab. VIII over tests, one row per classifier. A test that
// fails to compile or search, panics, or on which some classifier fails
// to evaluate a candidate adds nothing to any row but its errors, and
// the sweep goes on.
func table8(tests []*litmus.Test, classifiers []classifier) []Table8Row {
	machines := hardware.ByArch(hardware.ARM)
	rows := make([]Table8Row, len(classifiers))
	for i, m := range classifiers {
		rows[i] = Table8Row{Model: m.Name(), ByAxes: map[string]int{}}
	}
	var mu sync.Mutex
	failed := sweep(tests, func(ctx context.Context, t *litmus.Test) error {
		p, err := exec.Compile(t)
		if err != nil {
			return err
		}
		defer p.Release()
		observers := make([]*hardware.Observer, len(machines))
		for i, m := range machines {
			observers[i] = m.Observer()
			defer observers[i].Release()
		}
		evaluators := make([]core.Checker, len(classifiers))
		for i, m := range classifiers {
			evaluators[i] = m.NewEvaluator()
			defer core.Release(evaluators[i])
		}
		// The test's own counts, added to the rows only once it is judged.
		own := make([]Table8Row, len(classifiers))
		var evalErr error
		err = p.Search(ctx, exec.Request{}, func(c *exec.Candidate) bool {
			if !slices.ContainsFunc(observers, func(o *hardware.Observer) bool { return o.Observes(c.X, t.Name) }) {
				return true
			}
			for i, ev := range evaluators {
				res := ev.Check(c.X)
				if res.Err != nil {
					evalErr = res.Err
					return false
				}
				if res.Valid {
					continue
				}
				if own[i].ByAxes == nil {
					own[i].ByAxes = map[string]int{}
				}
				own[i].Total++
				own[i].ByAxes[axesKey(res.FailedChecks)]++
			}
			return true
		})
		if err == nil {
			err = evalErr
		}
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range rows {
			rows[i].Total += own[i].Total
			for k, v := range own[i].ByAxes {
				rows[i].ByAxes[k] += v
			}
		}
		return nil
	})
	for i := range rows {
		rows[i].Errors = failed
	}
	return rows
}

// axesKey spells the violated checks of a cat model in Tab. VIII's
// column letters.
func axesKey(failed []string) string {
	var b strings.Builder
	for _, name := range failed {
		switch name {
		case "sc-per-location", "sc-per-location-llh":
			b.WriteByte('S')
		case "no-thin-air":
			b.WriteByte('T')
		case "observation":
			b.WriteByte('O')
		case "propagation":
			b.WriteByte('P')
		}
	}
	return b.String()
}

// RenderTable8 formats the rows like Tab. VIII.
func RenderTable8(rows []Table8Row) string {
	keySet := map[string]bool{}
	for _, r := range rows {
		for k := range r.ByAxes {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	b.WriteString("Table VIII: invalid executions observed on ARM, by violated axioms\n")
	fmt.Fprintf(&b, "%-12s %8s", "model", "ALL")
	for _, k := range keys {
		fmt.Fprintf(&b, " %8s", k)
	}
	fmt.Fprintf(&b, " %8s\n", "errors")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d", r.Model, r.Total)
		for _, k := range keys {
			fmt.Fprintf(&b, " %8d", r.ByAxes[k])
		}
		fmt.Fprintf(&b, " %8d\n", r.Errors)
	}
	return b.String()
}
