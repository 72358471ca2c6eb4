package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// simJob is a job whose body simulates test under m.
func simJob(name string, test *litmus.Test, m sim.Checker) campaign.Job {
	return campaign.Job{Name: name, Model: m, Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
		return sim.Simulate(ctx, sim.Request{Test: test, Checker: m, Budget: b})
	}}
}

// panicChecker stands in for a buggy model: it panics on every candidate.
type panicChecker struct{}

func (panicChecker) Name() string                        { return "panicky" }
func (panicChecker) Check(*events.Execution) core.Result { panic("boom: injected checker panic") }

// TestPanicContainedToJob: one panicking job must not take down the pool
// or disturb the other jobs' results.
func TestPanicContainedToJob(t *testing.T) {
	test := litmus.MustParse(sbSrc)
	jobs := []campaign.Job{
		simJob("good-0", test, models.TSO),
		simJob("bad", test, panicChecker{}),
		simJob("good-1", test, models.TSO),
		simJob("good-2", test, models.SC),
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

// TestNoRetryWhenDisabled: the body sees Config.Budget unchanged and a
// deadline from Config.Timeout, and an Incomplete result is final, so the
// caller's budget is a hard bound (cmd/herd and herdd key verdicts by it).
func TestNoRetryWhenDisabled(t *testing.T) {
	var attempts atomic.Int32
	budget := exec.Budget{MaxCandidates: 10}
	job := campaign.Job{Name: "hard-bound", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
		attempts.Add(1)
		if b != budget {
			t.Errorf("body got budget %+v, want %+v", b, budget)
		}
		if _, ok := ctx.Deadline(); !ok {
			t.Error("body ran without the Config.Timeout deadline")
		}
		return &sim.Outcome{Incomplete: true, Reason: exec.ErrBudgetExceeded}, nil
	}}
	cfg := campaign.Config{Budget: budget, Timeout: time.Hour}
	rep := campaign.Run(context.Background(), cfg, []campaign.Job{job})
	if got := attempts.Load(); got != 1 {
		t.Errorf("ran %d attempts, want 1", got)
	}
	if rep.Jobs[0].Status != campaign.StatusIncomplete {
		t.Errorf("status = %s, want Incomplete", rep.Jobs[0].Status)
	}
}

// transientErr reads like a transient backend failure, and keeps the
// RetryableError method through which such errors once declared
// themselves transient: campaign asks no error whether it may be retried,
// so a job that returns one runs once like any other.
type transientErr struct{ msg string }

func (e *transientErr) Error() string        { return e.msg }
func (e *transientErr) RetryableError() bool { return true }

// TestOneAttemptPerJob: under the zero Config, neither budget pressure nor
// an error that declares itself transient earns a second run — each body
// runs exactly once and its row reads one attempt.
func TestOneAttemptPerJob(t *testing.T) {
	var incomplete, transient atomic.Int32
	jobs := []campaign.Job{
		{Name: "pressure", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
			incomplete.Add(1)
			return &sim.Outcome{Candidates: 7, Incomplete: true, Reason: exec.ErrBudgetExceeded, Model: "m"}, nil
		}},
		{Name: "transient", Run: func(ctx context.Context, b exec.Budget) (*sim.Outcome, error) {
			transient.Add(1)
			return nil, &transientErr{msg: "backend connection reset"}
		}},
	}
	rep := campaign.Run(context.Background(), campaign.Config{}, jobs)
	for i, want := range []struct {
		calls  *atomic.Int32
		status campaign.Status
	}{{&incomplete, campaign.StatusIncomplete}, {&transient, campaign.StatusError}} {
		res := rep.Jobs[i]
		if got := want.calls.Load(); got != 1 {
			t.Errorf("%s: body ran %d times, want 1", res.Name, got)
		}
		if res.Status != want.status || res.Attempts != 1 {
			t.Errorf("%s: status %s after %d attempts, want %s after 1", res.Name, res.Status, res.Attempts, want.status)
		}
	}
	if rep.Jobs[0].Candidates != 7 {
		t.Errorf("pressure: %d candidates, want the partial outcome's 7", rep.Jobs[0].Candidates)
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
		jobs[i] = simJob("ok", test, models.TSO)
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
		simJob("sb-tso", test, models.TSO),
		simJob("sb-sc", test, models.SC),
		simJob("bad", test, panicChecker{}),
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
