package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

const sbSrc = `X86 sb
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`

// panicChecker stands in for a buggy model: it panics on every candidate.
type panicChecker struct{}

func (panicChecker) Name() string                        { return "panicky" }
func (panicChecker) Check(*events.Execution) core.Result { panic("boom: injected checker panic") }

// TestPanicContainedToJob: one panicking job must not take down the pool
// or disturb the other jobs' results.
func TestPanicContainedToJob(t *testing.T) {
	test := litmus.MustParse(sbSrc)
	jobs := []campaign.Job{
		{Name: "good-0", Test: test, Model: models.TSO},
		{Name: "bad", Test: test, Model: panicChecker{}},
		{Name: "good-1", Test: test, Model: models.TSO},
		{Name: "good-2", Test: test, Model: models.SC},
	}
	rep := campaign.Run(context.Background(), campaign.Config{Workers: 2}, jobs)
	if len(rep.Jobs) != 4 {
		t.Fatalf("got %d results, want 4", len(rep.Jobs))
	}
	bad := rep.Jobs[1]
	if bad.Status != campaign.StatusPanicked {
		t.Errorf("panicking job status = %s, want Panicked", bad.Status)
	}
	if !strings.Contains(bad.Reason, "boom") {
		t.Errorf("panic reason not captured: %q", bad.Reason)
	}
	if bad.Stack == "" {
		t.Error("panic stack not captured")
	}
	for _, i := range []int{0, 2, 3} {
		res := rep.Jobs[i]
		if res.Status != campaign.StatusOK && res.Status != campaign.StatusForbidden {
			t.Errorf("job %s status = %s (%s), want a completed verdict", res.Name, res.Status, res.Reason)
		}
		if res.Candidates == 0 {
			t.Errorf("job %s has no candidates — its work was disturbed", res.Name)
		}
	}
	if rep.Counts[campaign.StatusPanicked] != 1 || rep.Failures() != 1 {
		t.Errorf("counts = %v", rep.Counts)
	}
}

// TestRetryWithLargerBudget: a job that is Incomplete under budget
// pressure is retried once with a scaled budget and then succeeds.
func TestRetryWithLargerBudget(t *testing.T) {
	var attempts atomic.Int32
	job := campaign.Job{Name: "pressure", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
		attempts.Add(1)
		if b.MaxCandidates < 40 {
			return &sim.Outcome{Incomplete: true, Reason: exec.ErrBudgetExceeded, Model: "m"}, nil
		}
		return &sim.Outcome{Candidates: 50, Valid: 50, CondObserved: true, Model: "m"}, nil
	}}
	cfg := campaign.Config{Budget: exec.Budget{MaxCandidates: 10}, Backoff: time.Millisecond}
	rep := campaign.Run(context.Background(), cfg, []campaign.Job{job})
	res := rep.Jobs[0]
	if got := attempts.Load(); got != 2 {
		t.Errorf("ran %d attempts, want 2", got)
	}
	if res.Status != campaign.StatusOK || res.Attempts != 2 {
		t.Errorf("result = %s after %d attempts, want OK after 2 (%s)", res.Status, res.Attempts, res.Reason)
	}
}

// TestNoRetryWhenDisabled: Retries < 0 keeps the user's budget a hard
// bound (cmd/herd mode).
func TestNoRetryWhenDisabled(t *testing.T) {
	var attempts atomic.Int32
	job := campaign.Job{Name: "hard-bound", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
		attempts.Add(1)
		return &sim.Outcome{Incomplete: true, Reason: exec.ErrBudgetExceeded}, nil
	}}
	rep := campaign.Run(context.Background(), campaign.Config{Retries: -1}, []campaign.Job{job})
	if got := attempts.Load(); got != 1 {
		t.Errorf("ran %d attempts, want 1", got)
	}
	if rep.Jobs[0].Status != campaign.StatusIncomplete {
		t.Errorf("status = %s, want Incomplete", rep.Jobs[0].Status)
	}
}

// TestForEachCancelsInFlightWork: the first error must cancel the context
// seen by every other in-flight call promptly.
func TestForEachCancelsInFlightWork(t *testing.T) {
	sentinel := errors.New("job 0 failed")
	start := time.Now()
	err := campaign.ForEach(context.Background(), 4, 8, func(ctx context.Context, i int) error {
		if i == 0 {
			return sentinel
		}
		select {
		case <-ctx.Done():
			return nil // cancellation observed: wind down cleanly
		case <-time.After(10 * time.Second):
			return errors.New("cancellation never propagated")
		}
	})
	if err != sentinel {
		t.Errorf("ForEach = %v, want the first error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("in-flight work not cancelled promptly (%v)", elapsed)
	}
}

func TestForEachNoError(t *testing.T) {
	var n atomic.Int32
	if err := campaign.ForEach(context.Background(), 0, 100, func(ctx context.Context, i int) error {
		n.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d calls, want 100", n.Load())
	}
}

// TestStopOnErrorSkipsRemaining: with StopOnError the pool stops feeding
// after the first failure and reports never-started jobs as Skipped.
func TestStopOnErrorSkipsRemaining(t *testing.T) {
	boom := errors.New("first job fails")
	jobs := make([]campaign.Job, 10)
	jobs[0] = campaign.Job{Name: "fails", Run: func(context.Context, exec.Budget) (*sim.Outcome, error) {
		return nil, boom
	}}
	test := litmus.MustParse(sbSrc)
	for i := 1; i < len(jobs); i++ {
		jobs[i] = campaign.Job{Name: "ok", Test: test, Model: models.TSO}
	}
	rep := campaign.Run(context.Background(), campaign.Config{Workers: 1, StopOnError: true}, jobs)
	if rep.Jobs[0].Status != campaign.StatusError {
		t.Errorf("job 0 status = %s, want Error", rep.Jobs[0].Status)
	}
	// The worker may already hold one more job when the stop lands; all
	// later ones must be Skipped.
	if skipped := rep.Counts[campaign.StatusSkipped]; skipped < 8 {
		t.Errorf("skipped %d jobs, want >= 8 (counts %v)", skipped, rep.Counts)
	}
	for _, res := range rep.Jobs {
		if res.Status == campaign.StatusSkipped && res.Name == "" {
			t.Error("skipped result lost its job name")
		}
	}
}

// TestReportJSONRoundTrip: the report is machine-readable and carries the
// per-status counts.
func TestReportJSONRoundTrip(t *testing.T) {
	test := litmus.MustParse(sbSrc)
	jobs := []campaign.Job{
		{Name: "sb-tso", Test: test, Model: models.TSO},
		{Name: "sb-sc", Test: test, Model: models.SC},
		{Name: "bad", Test: test, Model: panicChecker{}},
	}
	rep := campaign.Run(context.Background(), campaign.Config{}, jobs)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded campaign.Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Jobs) != 3 {
		t.Fatalf("decoded %d jobs, want 3", len(decoded.Jobs))
	}
	if decoded.Jobs[0].Status != campaign.StatusOK { // sb is TSO-allowed
		t.Errorf("sb under TSO = %s, want OK", decoded.Jobs[0].Status)
	}
	if decoded.Jobs[1].Status != campaign.StatusForbidden { // and SC-forbidden
		t.Errorf("sb under SC = %s, want Forbidden", decoded.Jobs[1].Status)
	}
	if decoded.Counts[campaign.StatusPanicked] != 1 {
		t.Errorf("counts = %v", decoded.Counts)
	}
	if len(decoded.Jobs[0].States) == 0 {
		t.Error("JSON report should carry the state histogram")
	}
}

// transientErr is an error that opts into retrying via the structural
// RetryableError contract (as the fleet client's errors do).
type transientErr struct{ msg string }

func (e *transientErr) Error() string        { return e.msg }
func (e *transientErr) RetryableError() bool { return true }

// TestRetryableErrorClassification: an Error whose cause declares itself
// transient is retried (same budget) and can heal; a permanent error — a
// parse failure, say — settles on the first attempt, because re-running it
// can only reproduce it.
func TestRetryableErrorClassification(t *testing.T) {
	var transientCalls, permanentCalls atomic.Int32
	jobs := []campaign.Job{
		{Name: "transient", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
			if transientCalls.Add(1) == 1 {
				return nil, &transientErr{msg: "backend connection reset"}
			}
			return &sim.Outcome{Candidates: 3, Valid: 3, CondObserved: true, Model: "m"}, nil
		}},
		{Name: "permanent", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
			permanentCalls.Add(1)
			return nil, errors.New("litmus: parse error at line 3")
		}},
	}
	rep := campaign.Run(context.Background(), campaign.Config{Retries: 3, Backoff: time.Millisecond}, jobs)

	tr := rep.Jobs[0]
	if tr.Status != campaign.StatusOK || tr.Attempts != 2 {
		t.Errorf("transient job: status %s after %d attempts, want OK after 2", tr.Status, tr.Attempts)
	}
	perm := rep.Jobs[1]
	if perm.Status != campaign.StatusError || perm.Attempts != 1 {
		t.Errorf("permanent job: status %s after %d attempts, want Error after exactly 1 (no retry of parse errors)", perm.Status, perm.Attempts)
	}
	if got := permanentCalls.Load(); got != 1 {
		t.Errorf("permanent job ran %d times, want 1", got)
	}
}

// TestErrorRetryable pins the classifier: only errors carrying a
// RetryableError() method (directly or via wrapping) that returns true are
// transient.
func TestErrorRetryable(t *testing.T) {
	base := &transientErr{msg: "reset"}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("parse error"), false},
		{"direct", base, true},
		{"wrapped", fmt.Errorf("job sb: %w", base), true},
	} {
		if got := campaign.ErrorRetryable(tc.err); got != tc.want {
			t.Errorf("ErrorRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBackoffHonoursCancellation: a cancellation arriving during the
// retry backoff must end the job promptly — no extra attempt, no stuck
// timer wait — and keep the partial outcome of the last real attempt.
func TestBackoffHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int32
	job := campaign.Job{Name: "slow", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
		attempts.Add(1)
		cancel() // the caller tears the campaign down during the backoff
		return &sim.Outcome{Candidates: 7, Incomplete: true, Reason: exec.ErrBudgetExceeded, Model: "m"}, nil
	}}
	cfg := campaign.Config{Retries: 5, Backoff: time.Hour}
	done := make(chan *campaign.Report, 1)
	go func() { done <- campaign.Run(ctx, cfg, []campaign.Job{job}) }()
	select {
	case rep := <-done:
		res := rep.Jobs[0]
		if got := attempts.Load(); got != 1 {
			t.Errorf("ran %d attempts, want 1", got)
		}
		if res.Status != campaign.StatusIncomplete || res.Candidates != 7 {
			t.Errorf("result = %s with %d candidates, want the partial outcome kept", res.Status, res.Candidates)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign still blocked in backoff after cancellation")
	}
}

// TestEnumWorkers: the enumeration workers reach the simulator and leave
// the verdicts and candidate counts untouched; Job.EnumWorkers overrides
// the config.
func TestEnumWorkers(t *testing.T) {
	test := litmus.MustParse(sbSrc)
	base := campaign.Run(context.Background(), campaign.Config{}, []campaign.Job{
		{Name: "sb", Test: test, Model: models.TSO},
	}).Jobs[0]
	cfg := campaign.Config{EnumWorkers: 4}
	jobs := []campaign.Job{
		{Name: "sb", Test: test, Model: models.TSO},
		{Name: "sb-wide", Test: test, Model: models.TSO, EnumWorkers: 8},
	}
	rep := campaign.Run(context.Background(), cfg, jobs)
	for _, res := range rep.Jobs {
		if res.Status != base.Status || res.Valid != base.Valid || res.Candidates != base.Candidates {
			t.Errorf("%s: status %s valid %d candidates %d, want %s/%d/%d", res.Name,
				res.Status, res.Valid, res.Candidates, base.Status, base.Valid, base.Candidates)
		}
	}
}
