// Package sim is the single-event axiomatic simulator at the heart of herd
// (Sec. 8.3): it enumerates the candidate executions of a litmus test
// (package exec) and validates each against a model, reporting which final
// states are allowed and whether the test's condition is observable.
package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// Checker validates one candidate execution. models.Model and cat-compiled
// models both implement it.
type Checker = core.Checker

// SelfDeriving is implemented by evaluators that derive the dynamic
// relations they read themselves (events.Execution.DeriveDemand), as the
// compiled cat evaluator does. Simulate then enumerates deferred
// candidates (exec.Request.Deferred), which hold rf and co alone, so a
// candidate costs only the derivation its check reads. Every other
// checker gets fully derived candidates.
type SelfDeriving interface {
	DerivesOwnDemand()
}

// Options tunes how the candidate space is enumerated. The zero value is
// sequential.
type Options struct {
	// Workers parallelises the whole verdict (exec.Request.Workers): each
	// of Workers goroutines walks shards of the candidate space and checks
	// their candidates with an evaluator of its own, and the per-shard
	// partial outcomes fold in shard order. The folded prefix is exactly
	// the sequential one, so the outcome — counters, states, verdict and
	// even a deterministic truncation point — does not depend on it.
	Workers int
}

// Request is everything one simulation needs: Simulate is the single
// entry point, whether the test arrives as source or compiled.
type Request struct {
	// Test is the litmus test to simulate; it is compiled on the way in,
	// and the program released when Simulate returns. Leave nil when
	// Program carries a pre-compiled test.
	Test *litmus.Test

	// Program is an already-compiled test (exec.Compile), taking
	// precedence over Test — callers batching many models over one test
	// compile once and set only this.
	Program *exec.Program

	// Checker validates each candidate execution. Required.
	Checker Checker

	// Budget bounds the enumeration; the zero value is unlimited.
	Budget exec.Budget

	// Options tunes the enumeration (parallel workers).
	Options Options

	// Obs, when non-nil, records the run's phase trace and the
	// enumeration counters. The phases are exclusive: compile, enumerate
	// (the walk alone), check (the checker alone) and verdict (folding
	// the outcome). Check is estimated from a sample of timed checks
	// (worker.shard) and enumerate is the rest of the walk's time. With
	// Workers > 1, enumerate and check are busy times summed over the
	// folded shards — CPU time, which may exceed the wall clock. A nil
	// trace costs one branch per candidate.
	Obs *obs.Trace
}

// Simulate runs one litmus test under one model. It visits every candidate
// execution the budget allows; when the budget trips or ctx is canceled
// mid-search, the partial outcome is returned (not an error) with
// Incomplete set and Reason explaining why.
func Simulate(ctx context.Context, req Request) (*Outcome, error) {
	if req.Checker == nil {
		return nil, errors.New("sim: request needs a Checker")
	}
	p := req.Program
	if p == nil {
		if req.Test == nil {
			return nil, errors.New("sim: request needs a Test or a Program")
		}
		stop := req.Obs.Phase(obs.PhaseCompile)
		var err error
		p, err = exec.Compile(req.Test)
		stop()
		if err != nil {
			return nil, err
		}
		defer p.Release() // after the evaluators, released below
	}
	er := exec.Request{
		Budget:  req.Budget,
		Workers: req.Options.Workers,
		Obs:     req.Obs.Enum(),
	}
	// Each search goroutine gets one worker: the checker upgraded to a
	// per-worker evaluator when it offers one (compiled cat models, the
	// built-in zoo), whose pooled relation buffers make the steady-state
	// check allocation-free, plus one state keyer. Name and the
	// outcome still come from the original checker. The first evaluator
	// is built here, to learn whether it derives its own demand, and goes
	// to the first worker. The evaluators go back to their provider once
	// the search, and with it every worker, is done.
	prov, _ := req.Checker.(core.EvaluatorProvider)
	var borrowed []Checker
	defer func() {
		for _, ev := range borrowed {
			core.Release(ev)
		}
	}()
	newChecker := func() Checker {
		if prov != nil {
			if ev := prov.NewEvaluator(); ev != nil {
				borrowed = append(borrowed, ev)
				return ev
			}
		}
		return req.Checker
	}
	first := newChecker()
	_, er.Deferred = first.(SelfDeriving)
	newWorker := func() func(exec.Walk) *partial {
		ck := first
		if ck == nil {
			ck = newChecker()
		}
		first = nil
		w := &worker{check: ck.Check, cond: p.Test.Cond, traced: req.Obs != nil}
		if w.cond != nil {
			w.keyer = litmus.NewStateKeyer(w.cond)
		}
		return w.shard
	}
	parts, err := exec.SearchShards(ctx, p, er, newWorker)

	defer req.Obs.Phase(obs.PhaseVerdict)()
	out := &Outcome{Test: p.Test, Model: req.Checker.Name(), States: map[string]int{}}
	var busy, checkT time.Duration
	var evalErr error
	for i, pt := range parts {
		out.Candidates += pt.cands
		out.Valid += pt.valid
		out.violations += pt.violations
		out.CondObserved = out.CondObserved || pt.condObserved
		if i == 0 {
			out.FailedBy = pt.failedBy // adopted: one shard needs no second map
		} else {
			for k, n := range pt.failedBy {
				out.FailedBy[k] += n
			}
		}
		for k, cell := range pt.states {
			out.States[k] += *cell
		}
		busy += pt.busy
		checkT += pt.checking
		if pt.err != nil {
			evalErr = pt.err
		}
	}
	if out.FailedBy == nil {
		out.FailedBy = map[string]int{}
	}
	req.Obs.Observe(obs.PhaseEnumerate, busy-checkT)
	req.Obs.Observe(obs.PhaseCheck, checkT)
	if evalErr != nil {
		// The model itself failed to evaluate (e.g. a divergent let rec)
		// inside the sequential prefix: no verdict can be trusted.
		return nil, evalErr
	}
	if err != nil {
		if errors.Is(err, exec.ErrBudgetExceeded) || errors.Is(err, exec.ErrCanceled) {
			out.Incomplete = true
			out.Reason = err
			return out, nil
		}
		return nil, err
	}
	return out, nil
}

// worker is the checking state of one search goroutine, reused across
// every shard it walks: the evaluator and the state keyer are not safe for
// concurrent use, and a worker's shards run one at a time on its
// goroutine.
type worker struct {
	check  func(*events.Execution) core.Result
	cond   litmus.Cond
	keyer  *litmus.StateKeyer // nil without a condition
	traced bool
}

// partial is one shard's share of an Outcome. Shards fold in shard order;
// the counters and histograms add up, so the folded outcome is the one a
// single consumer of the sequential stream would build.
type partial struct {
	cands, valid, violations int
	condObserved             bool
	failedBy                 map[string]int

	// states counts final states through *int cells: with a fixed key
	// layout, a warm hit looks the rendered key up without materialising
	// the string (string([]byte) in a map index does not allocate) and
	// bumps the cell without rewriting the entry, so it allocates nothing.
	states map[string]*int

	err error // the model failed to evaluate; the shard stopped there

	// busy is the shard's walk wall time and checking the part of it spent
	// in the checker, estimated from the timed sample (traced runs only).
	busy, checking time.Duration

	// timedAt is the index of the latest timed candidate, and timedCheck
	// its check time.
	timedAt    int
	timedCheck time.Duration
}

// checkStride is the spacing of the timed checks once a shard is past its
// first checkStride candidates (see timed).
const checkStride = 64

// timed reports whether a traced shard times the check of its k-th
// candidate (from 0). Reading the clock twice per candidate cost about as
// much as a small check, so a shard times a sample: every checkStride-th
// candidate, and below that the first and every power of two. The start
// is sampled densely because that is where a skeleton's costly checks
// are: the evaluator binds it at its first candidate and runs the generic
// program until it specialises.
func timed(k int) bool {
	if k < checkStride {
		return k&(k-1) == 0
	}
	return k%checkStride == 0
}

// shard consumes one shard's candidates into a fresh partial. A traced
// shard estimates its check time from the timed sample: each timed check
// stands for itself and the untimed candidates since the previous one,
// and the last also for the rest of the shard. The estimate is capped at
// the shard's wall time, so enumerate, which is the rest of it, is never
// negative, and the two still add up to the wall time.
func (w *worker) shard(walk exec.Walk) *partial {
	pt := &partial{failedBy: map[string]int{}, states: map[string]*int{}, timedAt: -1}
	var t0 time.Time
	if w.traced {
		t0 = time.Now()
	}
	walk(func(c *exec.Candidate) bool { return w.visit(pt, c) })
	if w.traced {
		pt.busy = time.Since(t0)
		pt.checking += pt.timedCheck * time.Duration(pt.cands-1-pt.timedAt)
		pt.checking = min(pt.checking, pt.busy)
	}
	return pt
}

// visit checks one candidate and tallies it into pt; it returns false,
// stopping the shard, when the model fails to evaluate.
func (w *worker) visit(pt *partial, c *exec.Candidate) bool {
	k := pt.cands
	pt.cands++
	var res core.Result
	if w.traced && timed(k) {
		t0 := time.Now()
		res = w.check(c.X)
		pt.timedCheck = time.Since(t0)
		pt.checking += pt.timedCheck * time.Duration(k-pt.timedAt)
		pt.timedAt = k
	} else {
		res = w.check(c.X)
	}
	if res.Err != nil {
		pt.err = res.Err
		return false
	}
	if !res.Valid {
		for _, name := range res.FailedChecks {
			pt.failedBy[name]++
		}
		return true
	}
	pt.valid++
	// With a condition the variable layout is fixed, so the keyer renders
	// each key into one reusable buffer. A nil condition means the
	// variable set depends on the state itself (registers differ across
	// trace choices): no fixed layout exists and State.Key is the
	// fallback.
	var cell *int
	if w.keyer != nil {
		k := w.keyer.AppendKey(c.State)
		if cell = pt.states[string(k)]; cell == nil {
			cell = new(int)
			pt.states[string(k)] = cell
		}
	} else {
		k := c.State.Key(nil)
		if cell = pt.states[k]; cell == nil {
			cell = new(int)
			pt.states[k] = cell
		}
	}
	*cell++
	if w.cond == nil || w.cond.Eval(c.State) {
		pt.condObserved = true
	} else {
		pt.violations++
	}
	return true
}

// Outcome summarises a simulation run of one test under one model.
type Outcome struct {
	Test  *litmus.Test
	Model string

	// Candidates is the number of candidate executions enumerated;
	// Valid counts those the model accepts.
	Candidates int
	Valid      int

	// States histograms the final states of valid executions
	// (keyed on the variables the condition mentions).
	States map[string]int

	// FailedBy histograms the checks that invalid executions violate —
	// herd's explanation of *why* a behaviour is forbidden.
	FailedBy map[string]int

	// CondObserved is true iff some valid execution satisfies the
	// test's condition.
	CondObserved bool

	// Incomplete is true when enumeration stopped before exhausting the
	// candidate space — the budget tripped or the context was canceled.
	// Counters and States then cover only the candidates visited;
	// CondObserved and the quantifier verdicts are lower bounds.
	Incomplete bool

	// Reason explains an incomplete outcome; it matches
	// exec.ErrBudgetExceeded or exec.ErrCanceled under errors.Is.
	Reason error

	// violations counts valid executions whose final state fails the
	// condition (needed for the ForAll verdict).
	violations int
}

// Allowed reports whether the condition is observable under the model —
// the paper's "allowed/forbidden" verdict for a test.
func (o *Outcome) Allowed() bool { return o.CondObserved }

// OK interprets the outcome under the test's quantifier, like the litmus
// tool's Ok/No verdict.
func (o *Outcome) OK() bool {
	switch o.Test.Quant {
	case litmus.Exists:
		return o.CondObserved
	case litmus.NotExists:
		return !o.CondObserved
	case litmus.ForAll:
		return o.Valid > 0 && o.violations == 0
	}
	return false
}

// StateCount is one row of the final-state histogram in the JSON encoding.
type StateCount struct {
	State string `json:"state"`
	Count int    `json:"count"`
}

// CheckCount is one row of the failed-check histogram in the JSON encoding.
type CheckCount struct {
	Check string `json:"check"`
	Count int    `json:"count"`
}

// OutcomeJSON is the deterministic wire form of an Outcome: histograms
// are arrays sorted by key, the error reason is its text, and the embedded
// test shrinks to its name and quantifier. It round-trips through
// encoding/json, so API clients can decode it.
type OutcomeJSON struct {
	Test       string       `json:"test"`
	Quantifier string       `json:"quantifier,omitempty"`
	Model      string       `json:"model"`
	Candidates int          `json:"candidates"`
	Valid      int          `json:"valid"`
	States     []StateCount `json:"states"`
	FailedBy   []CheckCount `json:"failed_by,omitempty"`
	Allowed    bool         `json:"allowed"`
	OK         bool         `json:"ok"`
	Incomplete bool         `json:"incomplete,omitempty"`
	Reason     string       `json:"reason,omitempty"`
}

// JSON converts the outcome to its wire form.
func (o *Outcome) JSON() OutcomeJSON {
	states := make([]StateCount, 0, len(o.States))
	for k, n := range o.States {
		states = append(states, StateCount{State: k, Count: n})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].State < states[j].State })
	failed := make([]CheckCount, 0, len(o.FailedBy))
	for k, n := range o.FailedBy {
		failed = append(failed, CheckCount{Check: k, Count: n})
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Check < failed[j].Check })

	v := OutcomeJSON{
		Model:      o.Model,
		Candidates: o.Candidates,
		Valid:      o.Valid,
		States:     states,
		FailedBy:   failed,
		Allowed:    o.Allowed(),
		Incomplete: o.Incomplete,
	}
	if o.Test != nil {
		v.Test = o.Test.Name
		v.Quantifier = o.Test.Quant.String()
		v.OK = o.OK()
	}
	if o.Reason != nil {
		v.Reason = o.Reason.Error()
	}
	return v
}

// MarshalJSON renders the outcome deterministically (see OutcomeJSON):
// identical outcomes encode to identical bytes, so API responses and
// campaign reports are diffable across runs.
func (o *Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.JSON())
}

// String renders the outcome in a herd-like summary.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Test %s %s\n", o.Test.Name, o.Test.Quant)
	fmt.Fprintf(&b, "Model %s\n", o.Model)
	keys := make([]string, 0, len(o.States))
	for k := range o.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "States %d\n", len(keys))
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s\n", k)
	}
	if len(o.FailedBy) > 0 {
		checks := make([]string, 0, len(o.FailedBy))
		for k := range o.FailedBy {
			checks = append(checks, k)
		}
		sort.Strings(checks)
		b.WriteString("Violations")
		for _, k := range checks {
			fmt.Fprintf(&b, " %s:%d", k, o.FailedBy[k])
		}
		b.WriteByte('\n')
	}
	if o.Incomplete {
		fmt.Fprintf(&b, "Incomplete (%v)\n", o.Reason)
	}
	verdict := "No"
	if o.OK() {
		verdict = "Ok"
	}
	fmt.Fprintf(&b, "%s (%d/%d executions valid)\n", verdict, o.Valid, o.Candidates)
	return b.String()
}
