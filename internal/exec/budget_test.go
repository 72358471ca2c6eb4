package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// pathologicalSrc has a candidate space in the hundreds of thousands:
// eight same-location writes give 7! coherence orders per read-value
// assignment, and the two reads range over an eight-value domain. Running
// it to completion takes far longer than any budget used here, so these
// tests only pass if the budget actually interrupts the search.
const pathologicalSrc = `PPC pathological
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | li r2,5 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,2 | li r2,6 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,3 | li r2,7 ;
 stw r2,0(r1) | stw r2,0(r1) ;
 li r2,4 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
exists (1:r3=1 /\ 1:r4=2)`

func compilePathological(t *testing.T) *exec.Program {
	t.Helper()
	p, err := exec.Compile(litmus.MustParse(pathologicalSrc))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCancelStopsWithinOneYield(t *testing.T) {
	p := compilePathological(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	err := p.Search(ctx, exec.Request{Budget: exec.Budget{}}, func(*exec.Candidate) bool {
		yields++
		cancel() // cancel mid-search, from inside the first yield
		return true
	})
	if yields != 1 {
		t.Errorf("enumeration yielded %d candidates after cancellation, want exactly 1", yields)
	}
	if !errors.Is(err, exec.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	var ce *exec.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CancelError", err)
	}
	if ce.Candidates != 1 {
		t.Errorf("CancelError.Candidates = %d, want 1", ce.Candidates)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("CancelError should unwrap to the context cause, got %v", err)
	}
}

func TestMaxCandidatesBudget(t *testing.T) {
	p := compilePathological(t)
	yields := 0
	err := p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxCandidates: 3}}, func(*exec.Candidate) bool {
		yields++
		return true
	})
	if yields != 3 {
		t.Errorf("yielded %d candidates, want 3", yields)
	}
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	var le *exec.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T, want *LimitError", err)
	}
	if le.Limit != "candidates" || le.Max != 3 || le.Candidates != 3 {
		t.Errorf("LimitError = %+v, want candidates/3/3", le)
	}
}

func TestTimeoutBudget(t *testing.T) {
	p := compilePathological(t)
	start := time.Now()
	yields := 0
	err := p.Search(context.Background(), exec.Request{Budget: exec.Budget{Timeout: 30 * time.Millisecond}},
		func(*exec.Candidate) bool {
			yields++
			return true
		})
	elapsed := time.Since(start)
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("err = %v (after %d yields), want ErrBudgetExceeded", err, yields)
	}
	var le *exec.LimitError
	if errors.As(err, &le) && le.Limit != "timeout" {
		t.Errorf("LimitError.Limit = %q, want timeout", le.Limit)
	}
	// Prompt termination: the throttled deadline polls must fire orders
	// of magnitude before the full search would finish.
	if elapsed > 5*time.Second {
		t.Errorf("enumeration overran its 30ms budget by %v", elapsed)
	}
}

func TestTraceBudget(t *testing.T) {
	// Four read-value traces for P1; a cap of two truncates the space
	// but the truncated enumeration still yields its candidates.
	src := `PPC tinyread
{ 0:r1=x; 1:r1=x; }
 P0 | P1 ;
 li r2,1 | lwz r3,0(r1) ;
 stw r2,0(r1) | lwz r4,0(r1) ;
exists (1:r3=1 /\ 1:r4=1)`
	p, err := exec.Compile(litmus.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxTracesPerThread: 2}},
		func(*exec.Candidate) bool {
			yields++
			return true
		})
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	var le *exec.LimitError
	if errors.As(err, &le) && le.Limit != "traces" {
		t.Errorf("LimitError.Limit = %q, want traces", le.Limit)
	}
	if yields == 0 {
		t.Error("truncated enumeration should still yield the candidates it found")
	}
}

func TestEarlyStopIsNotAnError(t *testing.T) {
	p := compilePathological(t)
	yields := 0
	err := p.Search(context.Background(), exec.Request{Budget: exec.Budget{MaxCandidates: 100}},
		func(*exec.Candidate) bool {
			yields++
			return false // caller stop, before any budget trips
		})
	if err != nil {
		t.Errorf("caller early-stop returned %v, want nil", err)
	}
	if yields != 1 {
		t.Errorf("yielded %d, want 1", yields)
	}
}

// TestBudgetKeyFormat pins Budget.Key to the bytes fmt's
// candidates=%d;traces=%d;timeout=%d renders: every verdict key hashes
// it, and verdict keys are echoed to clients.
func TestBudgetKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		b    exec.Budget
		want string
	}{
		{exec.Budget{}, "candidates=0;traces=0;timeout=0"},
		{exec.Budget{MaxCandidates: -1, MaxTracesPerThread: -7, Timeout: -time.Second}, "candidates=-1;traces=-7;timeout=-1000000000"},
		{exec.Budget{MaxCandidates: math.MaxInt, MaxTracesPerThread: math.MaxInt, Timeout: math.MaxInt64},
			"candidates=9223372036854775807;traces=9223372036854775807;timeout=9223372036854775807"},
		{exec.Budget{MaxCandidates: math.MinInt, MaxTracesPerThread: math.MinInt, Timeout: math.MinInt64},
			"candidates=-9223372036854775808;traces=-9223372036854775808;timeout=-9223372036854775808"},
		{exec.Budget{Timeout: time.Nanosecond}, "candidates=0;traces=0;timeout=1"},
		{exec.Budget{MaxCandidates: 500, MaxTracesPerThread: 3, Timeout: 1500 * time.Millisecond}, "candidates=500;traces=3;timeout=1500000000"},
	} {
		if got := tc.b.Key(); got != tc.want {
			t.Errorf("%+v.Key() = %q, want %q", tc.b, got, tc.want)
		}
		if want := fmt.Sprintf("candidates=%d;traces=%d;timeout=%d", tc.b.MaxCandidates, tc.b.MaxTracesPerThread, int64(tc.b.Timeout)); tc.want != want {
			t.Errorf("table row %q is not fmt's %q", tc.want, want)
		}
	}
}
