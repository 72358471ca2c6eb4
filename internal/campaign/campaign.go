// Package campaign runs large batches of (litmus test, model) jobs the
// way the paper's evaluation does (Sec. 8: thousands of diy-generated tests
// per table), but hardened: each job's own Run body runs exactly once under
// the campaign's enumeration budget and wall-clock timeout, and a panicking
// model or checker is contained to its job instead of taking down the
// batch. The result is a machine-readable report that distinguishes OK,
// Forbidden, Incomplete, Panicked and Error — so one pathological test
// degrades one row of a table, not the whole campaign.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"herdcats/internal/exec"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
)

// Status classifies how one job ended.
type Status string

const (
	// StatusOK: simulation completed and the test's condition is
	// observable under the model (herd's "Allowed").
	StatusOK Status = "OK"
	// StatusForbidden: simulation completed and the condition is not
	// observable (herd's "Forbidden").
	StatusForbidden Status = "Forbidden"
	// StatusIncomplete: the budget or timeout tripped; the result
	// carries the partial outcome (states observed so far + reason).
	StatusIncomplete Status = "Incomplete"
	// StatusPanicked: the model/checker panicked; the panic was
	// contained to this job and the stack captured.
	StatusPanicked Status = "Panicked"
	// StatusError: compilation or simulation failed outright.
	StatusError Status = "Error"
	// StatusSkipped: the job never ran (the campaign stopped early
	// under Config.StopOnError or caller cancellation).
	StatusSkipped Status = "Skipped"
)

// Job is one unit of campaign work: a body that decides one test, and the
// name and model its report row carries.
type Job struct {
	Name  string
	Model sim.Checker

	// Run decides the job. It must honour ctx and the budget (incomplete
	// work is reported via Outcome.Incomplete, hard failures via the
	// error).
	Run func(ctx context.Context, b exec.Budget) (*sim.Outcome, error)
}

// Config tunes a campaign. The zero value runs every job once on
// GOMAXPROCS workers with an unlimited budget and no timeout.
type Config struct {
	Workers int           // pool size; <= 0 selects GOMAXPROCS
	Timeout time.Duration // per-job wall clock (0 = none)
	Budget  exec.Budget   // per-job enumeration budget

	// StopOnError cancels the remaining jobs after the first Panicked
	// or Error result (jobs never started are reported Skipped). The
	// default — the fault-tolerant mode — keeps going.
	StopOnError bool

	// OnResult, when set, delivers each job's final result the moment it
	// settles — the incremental-delivery hook the streaming batch API is
	// built on. It is called from the worker goroutine that ran the job,
	// in completion order (not job order), once per job that the pool
	// started; jobs the pool never ran appear only in the final Report,
	// classified Skipped. The callback must be safe for concurrent calls
	// and should return quickly: a slow consumer stalls its worker.
	OnResult func(index int, res JobResult)
}

// JobResult records how one job ended. Outcome is kept for in-process
// callers and omitted from the JSON report (States/Candidates/Valid carry
// the machine-readable summary).
type JobResult struct {
	Name       string         `json:"name"`
	Model      string         `json:"model,omitempty"`
	Status     Status         `json:"status"`
	Candidates int            `json:"candidates"`
	Valid      int            `json:"valid"`
	States     map[string]int `json:"states,omitempty"`
	Reason     string         `json:"reason,omitempty"` // incomplete reason or error text
	Stack      string         `json:"stack,omitempty"`  // captured panic stack
	Attempts   int            `json:"attempts"`         // 1 once the body ran; 0 if Skipped
	ElapsedMS  int64          `json:"elapsed_ms"`

	// Trace is the job's phase breakdown. Run never sets it: a caller
	// whose Run bodies trace their work attaches it (cmd/herd -stats).
	Trace *obs.TraceJSON `json:"trace,omitempty"`

	Outcome *sim.Outcome `json:"-"`
}

// Failed reports whether the job ended in a hard failure.
func (r *JobResult) Failed() bool {
	return r.Status == StatusPanicked || r.Status == StatusError
}

// Report is the JSON-serialisable summary of a campaign.
type Report struct {
	Jobs      []JobResult    `json:"jobs"`
	Counts    map[Status]int `json:"counts"`
	ElapsedMS int64          `json:"elapsed_ms"`

	// PhaseTotals sums the traced jobs' phase durations and enumeration
	// counters — the campaign-wide answer to "where did the time go?".
	// Present only when some job carried a Trace.
	obs.PhaseTotals
}

// Add appends a result (e.g. a pre-run failure synthesised by a caller)
// and keeps the counts and phase totals consistent.
func (r *Report) Add(res JobResult) {
	r.Jobs = append(r.Jobs, res)
	r.tally(&res)
}

// tally counts res, one of r.Jobs, and folds its phase totals.
func (r *Report) tally(res *JobResult) {
	if r.Counts == nil {
		r.Counts = map[Status]int{}
	}
	r.Counts[res.Status]++
	if res.Trace != nil {
		r.Fold(res.Trace.Phases, &res.Trace.Enum)
	}
}

// Failures counts the jobs that ended Panicked or Error.
func (r *Report) Failures() int {
	return r.Counts[StatusPanicked] + r.Counts[StatusError]
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// errStop makes a failed job abort the pool under Config.StopOnError.
var errStop = errors.New("campaign: stopping on first failure")

// Run executes the jobs on a worker pool and never lets one job's failure
// destroy another's result: panics are recovered per job, errors are
// recorded per job, and (unless StopOnError) the pool keeps draining.
// Results are returned in job order.
func Run(ctx context.Context, cfg Config, jobs []Job) *Report {
	start := time.Now()
	results := make([]JobResult, len(jobs))
	_ = ForEach(ctx, cfg.Workers, len(jobs), func(ctx context.Context, i int) error {
		results[i] = runJob(ctx, cfg, jobs[i])
		if cfg.OnResult != nil {
			cfg.OnResult(i, results[i])
		}
		if cfg.StopOnError && results[i].Failed() {
			return errStop
		}
		return nil
	})
	// The report's rows are results itself, not a copy grown row by row;
	// an empty campaign keeps a nil Jobs, which JSON writes as null.
	rep := &Report{Counts: map[Status]int{}}
	if len(results) > 0 {
		rep.Jobs = results
	}
	for i := range results {
		res := &results[i]
		if res.Status == "" { // never started: pool stopped first
			res.Name = jobs[i].Name
			if jobs[i].Model != nil {
				res.Model = jobs[i].Model.Name()
			}
			res.Status = StatusSkipped
			res.Reason = "campaign stopped before this job ran"
		}
		rep.tally(res)
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep
}

// runJob runs one job's body once, under the campaign's budget and
// timeout, with panic containment: a panic in the model, the checker or
// the enumeration surfaces as a Panicked result with the captured stack,
// never further.
func runJob(ctx context.Context, cfg Config, job Job) JobResult {
	start := time.Now()
	res := JobResult{Name: job.Name, Attempts: 1}
	if job.Model != nil {
		res.Model = job.Model.Name()
	}
	out, err, stack := runBody(ctx, cfg, job)
	res.fill(out, err, stack)
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res
}

// runBody calls job.Run, recovering a panic into an error and its stack.
func runBody(ctx context.Context, cfg Config, job Job) (out *sim.Outcome, err error, stack string) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("panic: %v", r)
			stack = string(debug.Stack())
		}
	}()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	out, err = job.Run(ctx, cfg.Budget)
	return out, err, ""
}

// Settled is the row Run reports for a job named name under model whose
// body returned out without error, less the attempt count and the elapsed
// time, which are the run's own.
func Settled(name string, model sim.Checker, out *sim.Outcome) JobResult {
	res := JobResult{Name: name}
	if model != nil {
		res.Model = model.Name()
	}
	res.fill(out, nil, "")
	return res
}

// fill classifies the body's result into the JobResult.
func (r *JobResult) fill(out *sim.Outcome, err error, stack string) {
	r.Stack = stack
	r.Outcome = out
	switch {
	case stack != "":
		r.Status = StatusPanicked
		r.Reason = err.Error()
	case err != nil:
		r.Status = StatusError
		r.Reason = err.Error()
	case out == nil:
		r.Status = StatusError
		r.Reason = "job returned no outcome"
	case out.Incomplete:
		r.Status = StatusIncomplete
		if out.Reason != nil {
			r.Reason = out.Reason.Error()
		}
	case out.Allowed():
		r.Status = StatusOK
	default:
		r.Status = StatusForbidden
	}
	if out != nil {
		r.Candidates = out.Candidates
		r.Valid = out.Valid
		r.States = out.States
		if r.Model == "" {
			r.Model = out.Model
		}
	}
}
