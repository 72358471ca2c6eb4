package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/exec"
	"herdcats/internal/multi"
	"herdcats/internal/opsim"
	"herdcats/internal/sim"
)

// Table9Row is one line of Tab. IX: a simulation style, how many corpus
// tests it processed within budget, and its wall-clock time.
type Table9Row struct {
	Tool      string
	Style     string
	Tests     int
	Processed int
	Time      time.Duration
}

// Table9 reproduces the simulation comparison of Tab. IX on a generated
// Power corpus: operational exploration of the intermediate machine
// (ppcmem's role), the multi-event axiomatic checker (CAV 2012's role),
// and the single-event axiomatic checker (herd). The absolute numbers are
// ours; the shape — operational slowest and partially unprocessable,
// single-event fastest — is the paper's.
func Table9(c *Corpus, stateBound int) ([]Table9Row, error) {
	programs := make([]*exec.Program, len(c.Tests))
	for i, t := range c.Tests {
		p, err := exec.Compile(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.Name, err)
		}
		programs[i] = p
	}

	rows := make([]Table9Row, 0, 3)

	start := time.Now()
	processed := 0
	for _, p := range programs {
		res, err := opsim.RunCompiled(p, cat.MustBuiltin("power"), stateBound)
		if err != nil {
			return nil, err
		}
		if res.Processed {
			processed++
		}
	}
	rows = append(rows, Table9Row{
		Tool: "opsim (intermediate machine)", Style: "operational",
		Tests: len(programs), Processed: processed, Time: time.Since(start),
	})

	start = time.Now()
	for _, p := range programs {
		if _, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: multi.Model{}}); err != nil {
			return nil, err
		}
	}
	rows = append(rows, Table9Row{
		Tool: "herd (CAV12 reimplementation)", Style: "multi-event axiomatic",
		Tests: len(programs), Processed: len(programs), Time: time.Since(start),
	})

	start = time.Now()
	for _, p := range programs {
		if _, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: cat.MustBuiltin("power")}); err != nil {
			return nil, err
		}
	}
	rows = append(rows, Table9Row{
		Tool: "herd (this model)", Style: "single-event axiomatic",
		Tests: len(programs), Processed: len(programs), Time: time.Since(start),
	})
	return rows, nil
}

// RenderTable9 formats the rows like Tab. IX.
func RenderTable9(rows []Table9Row) string {
	var b strings.Builder
	b.WriteString("Table IX: comparison of simulation styles (Power corpus)\n")
	fmt.Fprintf(&b, "%-32s %-24s %10s %10s %12s\n", "tool", "style", "tests", "processed", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %-24s %10d %10d %12s\n",
			r.Tool, r.Style, r.Tests, r.Processed, r.Time.Round(time.Millisecond))
	}
	return b.String()
}
