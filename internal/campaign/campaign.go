// Package campaign runs large batches of (litmus test, model) simulation
// jobs the way the paper's evaluation does (Sec. 8: thousands of
// diy-generated tests per table), but hardened: every job carries its own
// enumeration budget and wall-clock timeout, a panicking model or checker
// is contained to its job instead of taking down the batch, and jobs that
// stop on budget pressure are retried once with a larger budget. The
// result is a machine-readable report that distinguishes OK, Forbidden,
// Incomplete, Panicked and Error — so one pathological test degrades one
// row of a table, not the whole campaign.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime/debug"
	"time"

	"herdcats/internal/exec"
	"herdcats/internal/litmus"
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

// Job is one unit of campaign work: a litmus test simulated under a
// model, or any custom function with the same shape.
type Job struct {
	Name  string
	Test  *litmus.Test
	Model sim.Checker

	// Run, when set, replaces the default sim.Simulate(Test, Model)
	// body. It must honour ctx and the budget (incomplete work is
	// reported via Outcome.Incomplete, hard failures via the error).
	Run func(ctx context.Context, b exec.Budget) (*sim.Outcome, error)

	// EnumWorkers overrides Config.EnumWorkers for this job when > 0: a
	// known-huge test can fan its enumeration out wider than the rest of
	// the campaign. The outcome is identical for every worker count, so
	// this is purely a scheduling knob.
	EnumWorkers int
}

// Config tunes a campaign. The zero value runs every job to completion on
// GOMAXPROCS workers with unlimited budgets and one budget-retry.
type Config struct {
	Workers int           // pool size; <= 0 selects GOMAXPROCS
	Timeout time.Duration // per-attempt wall clock (0 = none)
	Budget  exec.Budget   // per-attempt enumeration budget

	// Retries bounds the extra attempts granted to a job that comes
	// back Incomplete under budget pressure; each retry scales the
	// budget and timeout by BudgetGrowth. 0 means the default of 1;
	// negative disables retrying.
	Retries      int
	BudgetGrowth int           // budget multiplier per retry; 0 means the default of 4
	Backoff      time.Duration // pause before a retry; 0 means the default of 10ms

	// StopOnError cancels the remaining jobs after the first Panicked
	// or Error result (jobs never started are reported Skipped). The
	// default — the fault-tolerant mode — keeps going.
	StopOnError bool

	// EnumWorkers splits each job's verdict — walk and check — across
	// that many goroutines (sim.Options.Workers); <= 1 keeps it on the
	// job's own goroutine. Unlike
	// Workers (how many jobs run at once), this widens one job, without
	// changing its outcome. Job.EnumWorkers overrides it per job.
	EnumWorkers int

	// Trace records a per-job phase trace (compile → enumerate → check →
	// verdict plus enumeration counters) into each JobResult, and
	// aggregate phase totals into the Report. Off by default: tracing is
	// cheap but not free, and large campaigns produce large reports.
	Trace bool

	// OnResult, when set, delivers each job's final result the moment it
	// settles — the incremental-delivery hook the streaming batch API is
	// built on. It is called from the worker goroutine that ran the job,
	// in completion order (not job order), once per job that the pool
	// started; jobs the pool never ran appear only in the final Report,
	// classified Skipped. The callback must be safe for concurrent calls
	// and should return quickly: a slow consumer stalls its worker.
	OnResult func(index int, res JobResult)
}

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 1
	}
	return c.Retries
}

func (c Config) growth() int {
	if c.BudgetGrowth <= 0 {
		return 4
	}
	return c.BudgetGrowth
}

func (c Config) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 10 * time.Millisecond
	}
	return c.Backoff
}

// retryableError is the duck-typed contract an error uses to declare
// itself transient. The fleet client's errors implement it, as can any
// custom Job.Run error; keeping it structural avoids an import cycle
// between campaign and the packages whose errors flow through it.
type retryableError interface{ RetryableError() bool }

// ErrorRetryable reports whether err declares itself transient via a
// `RetryableError() bool` method anywhere in its chain. Errors that do not
// opt in are permanent: a litmus parse error or a model compile error
// fails identically on every attempt, so re-running it only burns campaign
// budget and delays the report.
func ErrorRetryable(err error) bool {
	var r retryableError
	return errors.As(err, &r) && r.RetryableError()
}

// maxBackoffWindow caps the exponential backoff window so a job stuck on
// a flapping dependency re-probes at least this often.
const maxBackoffWindow = 30 * time.Second

// jitteredBackoff draws the pause before retry number attempt (0-based):
// full jitter, uniform over [0, window], where window doubles from base
// each retry ("exponential backoff and full jitter"). Jobs that fail
// together — a whole campaign hitting one overloaded herdd — therefore do
// not retry together.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	window := base
	for i := 0; i < attempt && window < maxBackoffWindow; i++ {
		window *= 2
	}
	if window > maxBackoffWindow {
		window = maxBackoffWindow
	}
	return rand.N(window + 1)
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
	Attempts   int            `json:"attempts"`
	ElapsedMS  int64          `json:"elapsed_ms"`

	// Trace is the final attempt's phase breakdown, present only when
	// Config.Trace is set and the default job body ran (custom Job.Run
	// functions own their instrumentation).
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

	// PhaseTotalsUS sums each traced job's phase durations, in
	// microseconds — the campaign-wide answer to "where did the time
	// go?". Present only when Config.Trace was set.
	PhaseTotalsUS map[string]int64 `json:"phase_totals_us,omitempty"`

	// Enum sums the traced jobs' enumeration counters. Present only when
	// Config.Trace was set.
	Enum *obs.EnumSnapshot `json:"enum,omitempty"`
}

// Add appends a result (e.g. a pre-run failure synthesised by a caller)
// and keeps the counts and phase totals consistent.
func (r *Report) Add(res JobResult) {
	r.Jobs = append(r.Jobs, res)
	if r.Counts == nil {
		r.Counts = map[Status]int{}
	}
	r.Counts[res.Status]++
	if res.Trace == nil {
		return
	}
	if r.PhaseTotalsUS == nil {
		r.PhaseTotalsUS = map[string]int64{}
	}
	for _, ph := range res.Trace.Phases {
		r.PhaseTotalsUS[ph.Phase] += ph.DurationUS
	}
	if r.Enum == nil {
		r.Enum = &obs.EnumSnapshot{}
	}
	r.Enum.Add(res.Trace.Enum)
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
// destroy another's result: panics are recovered per attempt, errors are
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
	rep := &Report{Counts: map[Status]int{}}
	for i, res := range results {
		if res.Status == "" { // never started: pool stopped first
			res.Name = jobs[i].Name
			if jobs[i].Model != nil {
				res.Model = jobs[i].Model.Name()
			}
			res.Status = StatusSkipped
			res.Reason = "campaign stopped before this job ran"
		}
		rep.Add(res)
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep
}

// runJob drives one job through its attempts. Two kinds of failure earn a
// retry: an Incomplete under budget pressure (not caller cancellation),
// which re-runs with a budget scaled by cfg.growth(); and an Error whose
// cause declares itself transient (ErrorRetryable — a fleet client losing
// a backend mid-request), which re-runs with the same budget. Permanent
// errors — a parse failure, a model bug — settle immediately: they would
// fail identically on every attempt.
func runJob(ctx context.Context, cfg Config, job Job) JobResult {
	start := time.Now()
	res := JobResult{Name: job.Name}
	if job.Model != nil {
		res.Model = job.Model.Name()
	}
	budget := cfg.Budget
	timeout := cfg.Timeout
attempts:
	for attempt := 0; ; attempt++ {
		res.Attempts++
		out, tr, err, stack := runAttempt(ctx, cfg, timeout, budget, job)
		res.fill(out, err, stack)
		res.Trace = tr.Summary()
		if ctx.Err() != nil || attempt >= cfg.retries() {
			break
		}
		switch {
		case res.Status == StatusIncomplete:
			// Budget pressure: grow the budget so the retry can finish.
			budget = budget.Scale(cfg.growth())
			if timeout > 0 {
				timeout *= time.Duration(cfg.growth())
			}
		case res.Status == StatusError && ErrorRetryable(err):
			// Transient infrastructure failure: the same budget will do
			// once the dependency recovers.
		default:
			break attempts
		}
		// Back off with a stoppable timer: bare time.After would leave a
		// live timer behind on every cancellation, and a campaign retries
		// often enough for those to pile up. A cancellation during the
		// backoff also ends the job now — the retry it pre-empts could
		// only come back Incomplete(canceled) and overwrite the partial
		// outcome the last real attempt already produced.
		backoff := time.NewTimer(jitteredBackoff(cfg.backoff(), attempt))
		select {
		case <-backoff.C:
		case <-ctx.Done():
			backoff.Stop()
			break attempts
		}
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res
}

// runAttempt executes one attempt with panic containment: a panic in the
// model, the checker or the enumeration surfaces as an error plus the
// captured stack, never further.
func runAttempt(ctx context.Context, cfg Config, timeout time.Duration, b exec.Budget, job Job) (out *sim.Outcome, tr *obs.Trace, err error, stack string) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("panic: %v", r)
			stack = string(debug.Stack())
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if job.Run != nil {
		out, err = job.Run(ctx, b)
		return out, nil, err, ""
	}
	o := sim.Options{Workers: cfg.EnumWorkers}
	if job.EnumWorkers > 0 {
		o.Workers = job.EnumWorkers
	}
	if cfg.Trace {
		tr = obs.NewTrace()
	}
	out, err = sim.Simulate(ctx, sim.Request{
		Test: job.Test, Checker: job.Model, Budget: b, Options: o, Obs: tr,
	})
	return out, tr, err, ""
}

// Settled is the row Run reports for a job named name under model whose
// one attempt returned out without error, less the attempt count and
// the elapsed time, which are the run's own.
func Settled(name string, model sim.Checker, out *sim.Outcome) JobResult {
	res := JobResult{Name: name}
	if model != nil {
		res.Model = model.Name()
	}
	res.fill(out, nil, "")
	return res
}

// fill classifies one attempt's result into the JobResult.
func (r *JobResult) fill(out *sim.Outcome, err error, stack string) {
	r.Stack = stack
	r.Outcome = out
	r.Reason = ""
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
