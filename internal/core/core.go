// Package core is the checker contract that the simulator, the cat
// evaluators, the multi-event checker and the benchmark share: a Checker
// validates one candidate execution and reports a Result, and an
// EvaluatorProvider hands out stateful per-goroutine Checkers. The models
// themselves live elsewhere: the builtin cat files (package cat) decide
// every verdict, and package models keeps the hand-written axiomatic
// framework of Fig. 5 as their oracle.
package core

import "herdcats/internal/events"

// Checker validates one candidate execution (sim.Checker is an alias).
// It lives here so evaluator providers in leaf packages (models, cat) can
// name the type without importing the simulator.
type Checker interface {
	Name() string
	Check(x *events.Execution) Result
}

// EvaluatorProvider is implemented by checkers that can supply a stateful
// evaluator — typically one owning an arena of pooled relation buffers, so
// steady-state checking allocates nothing. sim.Simulate asks for one
// evaluator per search worker and calls each evaluator's Check only from
// that worker's goroutine; with several workers, evaluators of one
// provider run concurrently on different goroutines, over candidates that
// share read-only skeletons. So the provider itself must stay safe for
// concurrent use (it is also shared through caches), each evaluator must
// be independent of its siblings, and Check must not write to anything a
// candidate shares with others. A nil evaluator tells the caller to fall
// back to the provider's own Check.
type EvaluatorProvider interface {
	NewEvaluator() Checker
}

// Release hands an evaluator's storage back to its provider, when the
// evaluator borrowed it from a pool (it has a Release method: the
// compiled cat evaluators), and does nothing otherwise. The evaluator
// must not be used again.
func Release(ck Checker) {
	if r, ok := ck.(interface{ Release() }); ok {
		r.Release()
	}
}

// Result reports the outcome of checking one candidate execution.
type Result struct {
	// Valid is true iff every axiom holds.
	Valid bool
	// FailedChecks names the violated checks, in the model's order. For
	// the hand-written zoo (package models) these are the axiom names of
	// Fig. 5; for cat-compiled models they are the model's own check names
	// ("as ..." clauses or derived names). The slice is read-only: an
	// evaluator may hand the same one to every result with the same set
	// of failed checks, so a caller that edits it copies it first.
	FailedChecks []string
	// Err is set when the model itself failed to evaluate on this candidate
	// (e.g. a registered cat model whose let-rec never converges). The
	// verdict then carries no information: Valid is false and the check
	// lists are empty. Callers running many candidates should abort the
	// search and surface the error rather than tallying the result.
	Err error
}
