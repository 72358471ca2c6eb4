package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"herdcats/internal/bmc"
	"herdcats/internal/cases"
	"herdcats/internal/cat"
	"herdcats/internal/multi"
	"herdcats/internal/opsim"
	"herdcats/internal/sim"
)

// Table10Row is one line of Tab. X: a verification route, the tests it
// decided and its time.
type Table10Row struct {
	Tool    string
	Route   string
	Tests   int
	Decided int
	Vars    int // SAT variables over the corpus (the SAT route only)
	Clauses int // stored SAT clauses over the corpus, before solving
	Time    time.Duration
}

// Table10 reproduces Tab. X's comparison of verification routes on a
// litmus corpus: deciding reachability through the *operational* model
// (the paper instruments programs so an SC tool explores the equivalent
// operational state space: goto-instrument + CBMC) against implementing
// the *axiomatic* model inside the verifier (CBMC's Power mode; our SAT
// BMC). The operational route pays the state explosion; the axiomatic
// route is orders of magnitude faster.
func Table10(c *Corpus, stateBound int) ([]Table10Row, error) {
	var rows []Table10Row

	start := time.Now()
	decided := 0
	for _, t := range c.Tests {
		res, err := opsim.Run(t, cat.MustBuiltin("power"), stateBound)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.Name, err)
		}
		if res.Processed {
			decided++
		}
	}
	rows = append(rows, Table10Row{
		Tool:  "opsim (operational instrumentation)",
		Route: "explicit-state, operational model",
		Tests: len(c.Tests), Decided: decided, Time: time.Since(start),
	})

	start = time.Now()
	row := Table10Row{
		Tool:  "bmc (axiomatic model in the tool)",
		Route: "SAT, single-event axiomatic model",
		Tests: len(c.Tests),
	}
	for _, t := range c.Tests {
		inst, err := bmc.Encode(t, bmc.Power)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.Name, err)
		}
		vars, _ := inst.Stats()
		row.Vars, row.Clauses = row.Vars+vars, row.Clauses+inst.Clauses()
		inst.Solve()
		inst.Release()
		row.Decided++
	}
	row.Time = time.Since(start)
	rows = append(rows, row)
	return rows, nil
}

// RenderTable10 formats the rows like Tab. X.
func RenderTable10(rows []Table10Row) string {
	var b strings.Builder
	b.WriteString("Table X: operational instrumentation vs in-tool axiomatic model\n")
	fmt.Fprintf(&b, "%-40s %8s %8s %10s %10s %12s\n", "tool", "tests", "decided", "vars", "clauses", "time")
	for _, r := range rows {
		vars, clauses := "-", "-"
		if r.Vars > 0 {
			vars, clauses = fmt.Sprint(r.Vars), fmt.Sprint(r.Clauses)
		}
		fmt.Fprintf(&b, "%-40s %8d %8d %10s %10s %12s\n", r.Tool, r.Tests, r.Decided, vars, clauses, r.Time.Round(time.Millisecond))
	}
	return b.String()
}

// Table11Row is one line of Tab. XI: a model implemented in the verifier.
type Table11Row struct {
	Model   string
	Tests   int
	Correct int // verdicts agreeing with the enumerative simulator
	Vars    int // SAT variables over the corpus
	Clauses int // stored SAT clauses over the corpus, before solving
	Time    time.Duration
}

// table11Rounds is how many times Table11 times each model's pass over
// the corpus; a row reports the fastest. One pass per model, in a fixed
// order, let one burst of load on a shared runner decide the comparison,
// and so could the median of a few: load only ever adds time, so the
// fastest pass is the one it disturbed least.
const table11Rounds = 5

// Table11 reproduces Tab. XI: the same SAT verifier carrying the CAV 2012
// multi-event model vs. the present single-event model, on a litmus corpus.
// Each round encodes and solves the whole corpus under both models, which
// go first in alternate rounds; a row's time is its fastest round, and its
// encoding size and verdicts are those of every round. After the timed
// rounds, each verdict is checked against the enumerative simulator under
// the matching model (multi.Model for CAV12, power.cat for the present
// one).
func Table11(c *Corpus) ([]Table11Row, error) {
	type model struct {
		id       bmc.ModelID
		ref      sim.Checker
		times    []time.Duration
		verdicts []bool
	}
	ms := []*model{{id: bmc.PowerCAV, ref: multi.Model{}}, {id: bmc.Power, ref: cat.MustBuiltin("power")}}
	rows := make([]Table11Row, len(ms))
	pass := func(i int) error {
		m, row := ms[i], &rows[i]
		row.Vars, row.Clauses = 0, 0
		verdicts := make([]bool, len(c.Tests))
		start := time.Now()
		for k, t := range c.Tests {
			inst, err := bmc.Encode(t, m.id)
			if err != nil {
				return fmt.Errorf("%s: %v", t.Name, err)
			}
			vars, _ := inst.Stats()
			row.Vars, row.Clauses = row.Vars+vars, row.Clauses+inst.Clauses()
			verdicts[k] = inst.Solve()
			inst.Release()
		}
		m.times = append(m.times, time.Since(start))
		m.verdicts = verdicts
		return nil
	}
	for r := 0; r < table11Rounds; r++ {
		for k := range ms {
			if err := pass((k + r) % len(ms)); err != nil {
				return nil, err
			}
		}
	}
	for i, m := range ms {
		row := &rows[i]
		row.Model, row.Tests = m.id.String(), len(c.Tests)
		row.Time = slices.Min(m.times)
		for k, t := range c.Tests {
			out, err := sim.Simulate(context.Background(), sim.Request{Test: t, Checker: m.ref})
			if err != nil {
				return nil, fmt.Errorf("%s: %v", t.Name, err)
			}
			if out.Allowed() == m.verdicts[k] {
				row.Correct++
			}
		}
	}
	return rows, nil
}

// RenderTable11 formats the rows like Tab. XI, with each encoding's size.
func RenderTable11(rows []Table11Row) string {
	var b strings.Builder
	b.WriteString("Table XI: verification with the CAV12 model vs the present model\n")
	fmt.Fprintf(&b, "%-32s %8s %8s %10s %10s %12s\n", "model", "tests", "correct", "vars", "clauses", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %8d %8d %10d %10d %12s\n", r.Model, r.Tests, r.Correct, r.Vars, r.Clauses, r.Time.Round(time.Millisecond))
	}
	return b.String()
}

// Table12Row is one line of Tab. XII: a case study verified under both
// models.
type Table12Row struct {
	Case         string
	HoldsFenced  bool // the correct variant's property holds
	BugFound     bool // the buggy variant's violation is reachable
	TimeCAV      time.Duration
	TimePresent  time.Duration
	VerdictAgree bool
}

// Table12 reproduces Tab. XII: the PgSQL, RCU and Apache case studies
// verified with the CAV12 and present models; verdicts agree and times are
// of the same order (the paper: "verification times of these particular
// examples are not affected by the choice of either of the two models").
func Table12() ([]Table12Row, error) {
	var rows []Table12Row
	for _, cs := range cases.All() {
		row := Table12Row{Case: cs.Name}

		start := time.Now()
		okInst, err := bmc.Encode(cs.Test(), bmc.Power)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", cs.Name, err)
		}
		reachable := okInst.Solve()
		row.HoldsFenced = !reachable // property = condition unreachable
		bugInst, err := bmc.Encode(cs.BuggyTest(), bmc.Power)
		if err != nil {
			return nil, err
		}
		row.BugFound = bugInst.Solve()
		row.TimePresent = time.Since(start)

		start = time.Now()
		cavOK, err := bmc.Encode(cs.Test(), bmc.PowerCAV)
		if err != nil {
			return nil, err
		}
		cavReach := cavOK.Solve()
		cavBug, err := bmc.Encode(cs.BuggyTest(), bmc.PowerCAV)
		if err != nil {
			return nil, err
		}
		cavBugReach := cavBug.Solve()
		row.TimeCAV = time.Since(start)
		row.VerdictAgree = cavReach == reachable && cavBugReach == row.BugFound
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable12 formats the rows like Tab. XII.
func RenderTable12(rows []Table12Row) string {
	var b strings.Builder
	b.WriteString("Table XII: case-study verification (PgSQL, RCU, Apache)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-10s %-12s %-12s %s\n",
		"case", "holds", "bug found", "CAV12", "present", "verdicts agree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8v %-10v %-12s %-12s %v\n",
			r.Case, r.HoldsFenced, r.BugFound,
			r.TimeCAV.Round(time.Millisecond), r.TimePresent.Round(time.Millisecond),
			r.VerdictAgree)
	}
	return b.String()
}
