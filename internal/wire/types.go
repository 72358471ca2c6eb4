package wire

import (
	"errors"
	"strings"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/exec"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
)

// ModelSpec selects the model of a request: exactly one of Name (a
// built-in cat model, see GET /v1/models) or Cat (an inline cat source,
// compiled once and memoised by content).
type ModelSpec struct {
	Name string `json:"name,omitempty"`
	Cat  string `json:"cat,omitempty"`
}

// Validate checks the one-of constraint.
func (m ModelSpec) Validate() error {
	switch {
	case m.Name == "" && m.Cat == "":
		return errors.New("model: one of name or cat is required")
	case m.Name != "" && m.Cat != "":
		return errors.New("model: name and cat are mutually exclusive")
	}
	return nil
}

// BudgetSpec maps onto exec.Budget; zero fields mean unlimited (subject to
// the server's MaxSimTimeout cap).
type BudgetSpec struct {
	MaxCandidates      int   `json:"max_candidates,omitempty"`
	MaxTracesPerThread int   `json:"max_traces_per_thread,omitempty"`
	TimeoutMS          int64 `json:"timeout_ms,omitempty"`
}

// Validate checks the bounds are non-negative.
func (b BudgetSpec) Validate() error {
	if b.MaxCandidates < 0 || b.MaxTracesPerThread < 0 || b.TimeoutMS < 0 {
		return errors.New("budget: bounds must be non-negative")
	}
	return nil
}

// Budget is the exec.Budget the bounds ask for; a zero bound is none.
func (b BudgetSpec) Budget() exec.Budget {
	eb := exec.Budget{MaxCandidates: b.MaxCandidates, MaxTracesPerThread: b.MaxTracesPerThread}
	if b.TimeoutMS > 0 {
		eb.Timeout = time.Duration(b.TimeoutMS) * time.Millisecond
	}
	return eb
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Litmus string     `json:"litmus"`
	Model  ModelSpec  `json:"model"`
	Budget BudgetSpec `json:"budget"`

	// DeadlineMS is the whole-request deadline budget in milliseconds
	// (0 = none). The X-Deadline header carries the same budget
	// hop-by-hop; when both are present the tighter one wins.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Validate checks the request's invariants.
func (r *RunRequest) Validate() error {
	if strings.TrimSpace(r.Litmus) == "" {
		return errors.New("litmus: a litmus test source is required")
	}
	if r.DeadlineMS < 0 {
		return errors.New("deadline_ms: must be non-negative")
	}
	if err := r.Model.Validate(); err != nil {
		return err
	}
	return r.Budget.Validate()
}

// EffectiveOptions echoes the options a request actually ran under, after
// server-side defaults and clamps — so a client can see, e.g., that its
// timeout was capped.
type EffectiveOptions struct {
	Workers int        `json:"workers"` // enumeration workers (0/1 = sequential)
	Budget  BudgetSpec `json:"budget"`  // effective budget, post-clamp
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	// Key is the verdict's content address (cache-key semantics are
	// documented in README.md).
	Key string `json:"key"`
	// Cached is true when the verdict came from the cache or from an
	// in-flight duplicate simulation rather than a fresh enumeration.
	Cached    bool             `json:"cached"`
	Verdict   string           `json:"verdict"` // "Allowed" | "Forbidden" | "Unknown"
	Outcome   sim.OutcomeJSON  `json:"outcome"`
	Options   EffectiveOptions `json:"options"`
	ElapsedMS int64            `json:"elapsed_ms"`
	// Trace breaks the request's wall clock into phases (parse → compile
	// → enumerate → check → verdict) with the enumeration counters. A
	// cached verdict reports only the parse span: the rest came for free.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many tests under one model
// and budget, swept on the campaign pool.
type BatchRequest struct {
	Tests  []string   `json:"tests"`
	Model  ModelSpec  `json:"model"`
	Budget BudgetSpec `json:"budget"`

	// DeadlineMS bounds the whole batch in milliseconds (0 = none);
	// see RunRequest.DeadlineMS and the X-Deadline header.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Ordered asks an NDJSON stream to deliver its result/error frames
	// in request order instead of completion order (buffering each frame
	// until its predecessors have been emitted). Ignored on buffered
	// responses, which are always in request order.
	Ordered bool `json:"ordered,omitempty"`
}

// MaxBatchTests bounds the tests of one upstream /v1/batch: herdd answers
// a larger batch with 413, and herd-gw splits each home backend's rows
// into sub-batches of at most this many.
const MaxBatchTests = 256

// Validate checks the request's invariants, except the batch-size cap
// (MaxBatchTests), which is the server's to enforce.
func (r *BatchRequest) Validate() error {
	if len(r.Tests) == 0 {
		return errors.New("tests: at least one litmus source is required")
	}
	if r.DeadlineMS < 0 {
		return errors.New("deadline_ms: must be non-negative")
	}
	if err := r.Model.Validate(); err != nil {
		return err
	}
	return r.Budget.Validate()
}

// BatchResponse is the body of a successful buffered POST /v1/batch.
// Report.Jobs, Cached and Keys are all in request order.
type BatchResponse struct {
	Report  *campaign.Report `json:"report"`
	Cached  []bool           `json:"cached"`
	Keys    []string         `json:"keys"`
	Options EffectiveOptions `json:"options"`
}

// ModelInfo describes one built-in model in GET /v1/models.
type ModelInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}
