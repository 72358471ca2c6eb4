// Command herd is the model-level simulator of Sec. 8.3: given a memory
// model — a built-in one, or any model written in the cat language — and
// litmus tests, it enumerates candidate executions and reports which final
// states the model allows.
//
// Usage:
//
//	herd [-model power|sc|tso|arm|arm-llh|power-arm] test.litmus...
//	herd -cat mymodel.cat test.litmus...
//	herd -j 8 -enum-workers 4 -timeout 2s -max-candidates 100000 -json tests/*.litmus
//	herd -server http://gw:8786 [-stream] [-tenant team] tests/*.litmus
//	herd -list-models
//
// "Given a specification of a model, the tool becomes a simulator for that
// model." Batches run on a fault-tolerant campaign: a test that exhausts
// its budget is reported Incomplete with the states observed so far, a
// panic or bad file costs only that test, and the exit status is nonzero
// iff some test failed outright.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/cat"
	"herdcats/internal/dot"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
)

func main() {
	model := flag.String("model", "power", "built-in cat model to simulate against")
	catFile := flag.String("cat", "", "path to a user cat model file (overrides -model)")
	list := flag.Bool("list-models", false, "list built-in models and exit")
	verbose := flag.Bool("v", false, "print every reachable final state")
	dotDir := flag.String("dot", "", "write a Graphviz diagram of each test's condition-witnessing execution into this directory")
	explain := flag.Bool("explain", false, "for forbidden tests, print the violated checks and their witness cycles")
	timeout := flag.Duration("timeout", 0, "per-test wall-clock budget (0 = none); exceeding it yields an Incomplete partial result")
	maxCand := flag.Int("max-candidates", 0, "per-test candidate-execution budget (0 = unlimited)")
	workers := flag.Int("j", 1, "tests simulated in parallel (0 = GOMAXPROCS)")
	enumWorkers := flag.Int("enum-workers", 1, "workers per verdict, each walking and checking its own shards (0 = GOMAXPROCS, 1 = sequential); never changes verdicts")
	contOnErr := flag.Bool("continue-on-error", true, "keep simulating remaining tests after a test errors or panics")
	jsonOut := flag.Bool("json", false, "emit the machine-readable campaign report on stdout")
	stats := flag.Bool("stats", false, "print a per-test phase breakdown (compile/enumerate/check/verdict, candidates, shards) and batch totals")
	server := flag.String("server", "", "run the batch on a herdd or herd-gw base URL instead of simulating locally")
	stream := flag.Bool("stream", false, "with -server: stream verdicts over NDJSON, printing each as it is produced")
	tenant := flag.String("tenant", "", "with -server: X-Tenant quota account to charge the batch to")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(cat.BuiltinNames(), "\n"))
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "herd: no litmus files given")
		flag.Usage()
		os.Exit(2)
	}

	if *server != "" {
		os.Exit(runRemote(remoteOpts{
			server:  *server,
			tenant:  *tenant,
			stream:  *stream,
			jsonOut: *jsonOut,
			verbose: *verbose,
			model:   *model,
			catFile: *catFile,
			timeout: *timeout,
			maxCand: *maxCand,
		}, flag.Args()))
	}
	if *stream {
		fmt.Fprintln(os.Stderr, "herd: -stream requires -server")
		os.Exit(2)
	}

	var checker sim.Checker
	if *catFile != "" {
		data, err := os.ReadFile(*catFile)
		if err != nil {
			fatal(err)
		}
		m, err := cat.Compile(string(data))
		if err != nil {
			fatal(err)
		}
		checker = m
	} else {
		m, err := cat.Builtin(*model)
		if err != nil {
			fatal(err)
		}
		checker = m
	}

	// Every simulation goes through a verdict cache (internal/memo): the
	// same file listed twice — or two files holding the same test — is
	// simulated once. The cache keeps verdicts, not compiled tests: the
	// -dot/-explain passes compile the tests they draw.
	ew := *enumWorkers
	if ew <= 0 {
		ew = runtime.GOMAXPROCS(0)
	}
	cache := memo.NewWithOptions(0, memo.Options{Workers: ew})

	// An unreadable or unparsable file becomes an Error job rather than
	// aborting the run: the remaining files still simulate, and the
	// failure is reported in order, in text and in the JSON report.
	jobs := make([]campaign.Job, flag.NArg())
	tests := make([]*litmus.Test, flag.NArg())
	traces := make([]*obs.Trace, flag.NArg())
	for i, path := range flag.Args() {
		i, path := i, path
		data, err := os.ReadFile(path)
		if err != nil {
			jobs[i] = errorJob(path, err)
			continue
		}
		test, perr := litmus.Parse(string(data))
		if perr != nil {
			jobs[i] = errorJob(path, perr)
			continue
		}
		tests[i] = test
		if *stats {
			traces[i] = obs.NewTrace()
		}
		jobs[i] = campaign.Job{Name: test.Name, Model: checker,
			Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
				out, _, err := cache.Simulate(ctx, memo.Request{
					Test: test, Model: checker, Budget: b, Obs: traces[i],
				})
				return out, err
			}}
	}

	cfg := campaign.Config{
		Workers:     *workers,
		Timeout:     *timeout,
		Budget:      exec.Budget{MaxCandidates: *maxCand},
		StopOnError: !*contOnErr,
	}
	rep := campaign.Run(context.Background(), cfg, jobs)

	// The jobs above trace their own work, so attach each test's trace
	// to its row (rep.Jobs is in job order) and fold it into the totals.
	if *stats {
		for i := range rep.Jobs {
			if tj := traces[i].Summary(); tj != nil {
				rep.Jobs[i].Trace = tj
				rep.Fold(tj.Phases, &tj.Enum)
			}
		}
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		printReport(rep, *verbose)
		if *stats {
			printStats(rep)
		}
	}

	exit := 0
	if rep.Failures() > 0 || rep.Counts[campaign.StatusSkipped] > 0 {
		exit = 1
	}

	// Diagram/explanation passes run after the campaign, per test, so a
	// failing test cannot take them down with it.
	if *dotDir != "" || *explain {
		for i, res := range rep.Jobs {
			if tests[i] == nil || res.Failed() || res.Status == campaign.StatusSkipped {
				continue
			}
			p, err := exec.Compile(tests[i])
			if err != nil {
				fmt.Fprintf(os.Stderr, "herd: %s: %v\n", flag.Arg(i), err)
				exit = 1
				continue
			}
			if *dotDir != "" {
				if err := writeDot(*dotDir, tests[i], p); err != nil {
					fmt.Fprintf(os.Stderr, "herd: %s: %v\n", flag.Arg(i), err)
					exit = 1
				}
			}
			if *explain && res.Status == campaign.StatusForbidden {
				if err := explainTest(tests[i], p, checker); err != nil {
					fmt.Fprintf(os.Stderr, "herd: %s: %v\n", flag.Arg(i), err)
					exit = 1
				}
			}
		}
	}
	os.Exit(exit)
}

// errorJob records a file-level failure as a campaign result so it shows
// up in the report without aborting the remaining files.
func errorJob(path string, err error) campaign.Job {
	return campaign.Job{Name: path, Run: func(context.Context, exec.Budget) (*sim.Outcome, error) {
		return nil, err
	}}
}

// printReport renders the campaign in herd's classic one-line-per-test
// format; failures go to stderr.
func printReport(rep *campaign.Report, verbose bool) {
	for _, res := range rep.Jobs {
		printJob(res, verbose)
	}
}

// printJob renders one test's row — also the unit the -stream mode
// prints as each frame arrives.
func printJob(res campaign.JobResult, verbose bool) {
	switch res.Status {
	case campaign.StatusError, campaign.StatusPanicked, campaign.StatusSkipped:
		fmt.Fprintf(os.Stderr, "herd: %s: %s: %s\n", res.Name, res.Status, res.Reason)
		return
	}
	if verbose && res.Outcome != nil {
		fmt.Print(res.Outcome)
		return
	}
	verdict := "Forbidden"
	if res.Status == campaign.StatusOK {
		verdict = "Allowed"
	}
	note := ""
	if res.Status == campaign.StatusIncomplete {
		verdict = "Allowed?" // lower bound: unexplored candidates remain
		if res.Outcome == nil || !res.Outcome.Allowed() {
			verdict = "Unknown"
		}
		note = fmt.Sprintf("  Incomplete: %s", res.Reason)
	}
	fmt.Printf("%-40s %s  %-9s (%d/%d executions valid)%s\n",
		res.Name, res.Model, verdict, res.Valid, res.Candidates, note)
}

// printStats renders each traced test's phase breakdown, then the batch
// totals. A test with an empty trace (an unreadable file, a verdict served
// from the cache without fresh work) prints nothing.
func printStats(rep *campaign.Report) {
	for _, res := range rep.Jobs {
		if res.Trace == nil {
			continue
		}
		fmt.Printf("%s:\n%s", res.Name, res.Trace)
	}
	if len(rep.PhaseTotalsUS) == 0 {
		return
	}
	fmt.Println("total:")
	total := &obs.TraceJSON{Enum: obs.EnumSnapshot{}}
	tr := obs.NewTrace()
	for name, us := range rep.PhaseTotalsUS {
		tr.Observe(name, time.Duration(us)*time.Microsecond)
	}
	if s := tr.Summary(); s != nil {
		total.Phases = s.Phases
	}
	if rep.Enum != nil {
		total.Enum = *rep.Enum
	}
	fmt.Print(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "herd:", err)
	os.Exit(1)
}

// explainTest prints, for the first candidate execution satisfying the
// test's condition, the checks it violates and their witness cycles, over
// the test's compiled program p.
func explainTest(test *litmus.Test, p *exec.Program, checker sim.Checker) error {
	catModel, ok := checker.(*cat.Model)
	if !ok {
		return fmt.Errorf("-explain requires a cat model")
	}
	found := false
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		if test.Cond != nil && !test.Cond.Eval(c.State) {
			return true
		}
		found = true
		vs, verr := catModel.Explain(c.X)
		if verr != nil {
			fmt.Printf("  model evaluation failed: %v\n", verr)
			return false
		}
		for _, v := range vs {
			fmt.Printf("  %s (%s)", v.Check, v.Kind)
			if len(v.Witness) > 1 {
				fmt.Print(": ")
				for i, id := range v.Witness {
					if i > 0 {
						fmt.Print(" -> ")
					}
					fmt.Print(c.X.Events[id])
				}
			} else if len(v.Witness) == 1 {
				fmt.Printf(" at %s", c.X.Events[v.Witness[0]])
			}
			fmt.Println()
		}
		return false
	})
	if err != nil {
		return err
	}
	if !found {
		fmt.Println("  (no candidate execution reaches the condition at all)")
	}
	return nil
}

// writeDot renders the first candidate execution satisfying the test's
// condition (the behaviour the test asks about) as a Graphviz file, in the
// style of the paper's figures, over the test's compiled program p.
func writeDot(dir string, test *litmus.Test, p *exec.Program) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var rendered string
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		if test.Cond == nil || test.Cond.Eval(c.State) {
			rendered = dot.Render(test.Name, c.X)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if rendered == "" {
		return fmt.Errorf("no candidate execution satisfies the condition of %s", test.Name)
	}
	name := strings.Map(func(r rune) rune {
		if r == '/' || r == ' ' {
			return '_'
		}
		return r
	}, test.Name)
	return os.WriteFile(filepath.Join(dir, name+".dot"), []byte(rendered), 0o644)
}
