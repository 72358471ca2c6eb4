// Package experiments regenerates the tables of the paper's evaluation
// (Sec. 8–9). Each Table function returns structured results plus a text
// rendering; cmd/cats-experiments drives them and EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"herdcats/internal/campaign"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/sim"
)

// sweepCache memoises verdicts across every table and ablation in the
// process: the nodetour ablation re-checks one corpus under model
// variants, and Table V confronts the same ARM corpus with two models, so
// repeated (test, model) pairs are served from memory instead of
// re-enumerating. Compiled tests are shared only within one test's job
// (exec.Share), across the engines that judge it there.
var sweepCache = memo.New(0)

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

// machineProfiles deduplicates machines with identical behaviour, so the
// per-candidate work is done once per distinct profile.
func machineProfiles(arch hardware.Arch) []hardware.Machine {
	seen := map[string]bool{}
	var out []hardware.Machine
	for _, m := range hardware.ByArch(arch) {
		key := fmt.Sprintf("%v|%v|%v",
			m.HasBug(hardware.BugLoadLoadHazard),
			m.HasBug(hardware.BugReadWriteHazard),
			m.HasBug(hardware.BugObservation)) + "|" + profileBase(m)
		if !seen[key] {
			seen[key] = true
			out = append(out, m)
		}
	}
	return out
}

// profileBase distinguishes machines by their intended-behaviour model via
// a probe: whether they would observe an early-commit behaviour. We avoid
// exporting hardware internals by using the machine name prefix.
func profileBase(m hardware.Machine) string {
	if strings.HasPrefix(m.Name, "apq") {
		return "arm-early-commit"
	}
	if strings.HasPrefix(m.Name, "power") {
		return "power"
	}
	return "arm-conservative"
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
	var rows []Table5Row

	powerRow, err := confront(BuildCorpus(litmus.PPC, minLen, maxLen, maxTests),
		cat.MustBuiltin("power"), hardware.Power)
	if err != nil {
		return nil, err
	}
	rows = append(rows, powerRow)

	armCorpus := BuildCorpus(litmus.ARM, minLen, maxLen, maxTests)
	powerARMRow, err := confront(armCorpus, cat.MustBuiltin("power-arm"), hardware.ARM)
	if err != nil {
		return nil, err
	}
	rows = append(rows, powerARMRow)

	armRow, err := confront(armCorpus, cat.MustBuiltin("arm-llh"), hardware.ARM)
	if err != nil {
		return nil, err
	}
	rows = append(rows, armRow)
	return rows, nil
}

// confront runs every corpus test under the model and on every (distinct)
// machine profile of the family, classifying tests as invalid/unseen. A
// test's verdict and its machine runs share one compiled program, with its
// thread traces and skeletons (exec.Share).
// Tests are independent, so the corpus is swept on the campaign runner:
// a test that panics or errors is counted in Errors and skipped, never
// aborting the whole confrontation.
func confront(c *Corpus, model sim.Checker, family hardware.Arch) (Table5Row, error) {
	row := Table5Row{Arch: string(family), Model: model.Name(), Tests: len(c.Tests)}
	profiles := machineProfiles(family)
	observed := make([]bool, len(c.Tests))
	jobs := make([]campaign.Job, len(c.Tests))
	for i, t := range c.Tests {
		i, t := i, t
		jobs[i] = campaign.Job{Name: t.Name, Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
			ctx = exec.Share(ctx, t)
			p, err := exec.ProgramFor(ctx, t)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", t.Name, err)
			}
			out, _, err := sweepCache.Run(ctx, t, model, b)
			if err != nil {
				return nil, err
			}
			for _, m := range profiles {
				obs, err := m.RunCompiled(ctx, p)
				if err != nil {
					return nil, err
				}
				if obs.CondObserved {
					observed[i] = true
					break
				}
			}
			return out, nil
		}}
	}
	rep := campaign.Run(context.Background(), campaign.Config{}, jobs)
	for i, res := range rep.Jobs {
		switch res.Status {
		case campaign.StatusOK, campaign.StatusForbidden:
			allowed := res.Status == campaign.StatusOK
			switch {
			case observed[i] && !allowed:
				row.Invalid++
			case !observed[i] && allowed:
				row.Unseen++
			}
		default: // Error, Panicked, Incomplete, Skipped
			row.Errors++
		}
	}
	return row, nil
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
		test := entry.Test()
		out, _, err := sweepCache.Run(context.Background(), test, cat.MustBuiltin("power-arm"), exec.Budget{})
		if err != nil {
			return nil, err
		}
		verdict := "Forbid"
		if out.Allowed() {
			verdict = "Allow"
		}
		row := Table6Row{Test: name, Model: verdict}
		for _, m := range hardware.ByArch(hardware.ARM) {
			obs, err := m.RunLitmus(test)
			if err != nil {
				return nil, err
			}
			if obs.CondObserved {
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
// O = OBSERVATION, P = PROPAGATION).
type Table8Row struct {
	Model  string
	Total  int
	ByAxes map[string]int // e.g. "S", "OP", "SOP" -> count
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
	profiles := machineProfiles(hardware.ARM)
	checkers := []*cat.Model{cat.MustBuiltin("power-arm"), cat.MustBuiltin("arm-llh")}
	rows := make([]Table8Row, len(checkers))
	for i, m := range checkers {
		rows[i] = Table8Row{Model: m.Name(), ByAxes: map[string]int{}}
	}

	// The sweep survives a single bad test: per-test panics and errors
	// are contained here and counted, and cancellation (should a caller
	// ever wrap this in a deadline) propagates into the enumeration.
	var mu sync.Mutex
	skipped := 0
	err := campaign.ForEach(context.Background(), 0, len(corpus.Tests), func(ctx context.Context, ti int) error {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				skipped++
				mu.Unlock()
			}
		}()
		t := corpus.Tests[ti]
		p, err := exec.Compile(t)
		if err != nil {
			mu.Lock()
			skipped++
			mu.Unlock()
			return nil
		}
		observers := make([]*hardware.Observer, len(profiles))
		for i, m := range profiles {
			observers[i] = m.Observer()
		}
		evaluators := make([]core.Checker, len(checkers))
		for i, m := range checkers {
			evaluators[i] = m.NewEvaluator()
		}
		return p.Search(ctx, exec.Request{}, func(c *exec.Candidate) bool {
			observed := false
			for _, o := range observers {
				if o.Observes(c.X, t.Name) {
					observed = true
					break
				}
			}
			if !observed {
				return true
			}
			for i, ev := range evaluators {
				res := ev.Check(c.X)
				if res.Valid {
					continue
				}
				mu.Lock()
				rows[i].Total++
				rows[i].ByAxes[axesKey(res.FailedChecks)]++
				mu.Unlock()
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
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
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d", r.Model, r.Total)
		for _, k := range keys {
			fmt.Fprintf(&b, " %8d", r.ByAxes[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
