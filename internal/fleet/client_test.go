package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/serve"
)

const sbSrc = `X86 sb
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`

func okRunResponse() serve.RunResponse {
	return serve.RunResponse{
		Key:     "k",
		Verdict: "Allowed",
	}
}

func writeOK(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(okRunResponse())
}

func writeEnvelope(w http.ResponseWriter, status int, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]serve.ErrorBody{
		"error": {Code: code, Message: "injected"},
	})
}

// TestClientRetriesTransient: 503 and 429 answers are retried until
// success; the response decodes through.
func TestClientRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			writeEnvelope(w, http.StatusServiceUnavailable, "unavailable")
		case 2:
			writeEnvelope(w, http.StatusTooManyRequests, "overloaded")
		default:
			writeOK(w)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL, Policy{BaseBackoff: time.Millisecond}, nil)
	resp, err := c.Run(context.Background(), serve.RunRequest{Litmus: sbSrc, Model: serve.ModelSpec{Name: "tso"}})
	if err != nil {
		t.Fatalf("run after transient failures: %v", err)
	}
	if resp.Verdict != "Allowed" || calls.Load() != 3 {
		t.Errorf("verdict %q after %d calls, want Allowed after 3", resp.Verdict, calls.Load())
	}
	if got := c.Stats().Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

// TestClientPermanentErrorsNotRetried: a 4xx envelope is the request's
// own fault — exactly one attempt, classified permanent.
func TestClientPermanentErrorsNotRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeEnvelope(w, http.StatusBadRequest, "bad_request")
	}))
	defer srv.Close()

	c := NewClient(srv.URL, Policy{BaseBackoff: time.Millisecond}, nil)
	_, err := c.Run(context.Background(), serve.RunRequest{Litmus: "nope", Model: serve.ModelSpec{Name: "tso"}})
	if err == nil {
		t.Fatal("bad request did not error")
	}
	if Retryable(err) {
		t.Error("4xx envelope classified retryable")
	}
	var e *Error
	if !errors.As(err, &e) || e.Status != http.StatusBadRequest || e.Code != "bad_request" {
		t.Errorf("error = %+v, want the decoded envelope", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want exactly 1 (no retry of permanent errors)", calls.Load())
	}
}

// TestClientConnectErrorRetryable: a refused connection is transport-
// class and retryable; attempts are exhausted then the failure surfaces.
func TestClientConnectErrorRetryable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // the address now refuses connections

	c := NewClient(srv.URL, Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond}, nil)
	_, err := c.Run(context.Background(), serve.RunRequest{Litmus: sbSrc, Model: serve.ModelSpec{Name: "tso"}})
	if err == nil {
		t.Fatal("connect to a closed server did not error")
	}
	if !Retryable(err) {
		t.Errorf("connect error not retryable: %v", err)
	}
	if got := c.Stats().Attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if got := c.Stats().Failures.Load(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
}

// TestClientDeadlinePropagation: a context deadline is forwarded as the
// X-Deadline budget header, in (decreasing) milliseconds.
func TestClientDeadlinePropagation(t *testing.T) {
	got := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Get(serve.DeadlineHeader)
		writeOK(w)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, Policy{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, serve.RunRequest{Litmus: sbSrc, Model: serve.ModelSpec{Name: "tso"}}); err != nil {
		t.Fatal(err)
	}
	h := <-got
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 || ms > 5000 {
		t.Errorf("X-Deadline = %q, want the remaining budget in (0, 5000] ms", h)
	}
}

// TestPolicyBackoffBounds: full jitter stays within the doubling window
// and under the cap.
func TestPolicyBackoffBounds(t *testing.T) {
	p := Policy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		window := 10 * time.Millisecond << attempt
		if window > 80*time.Millisecond {
			window = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if d := p.backoff(attempt); d < 0 || d > window {
				t.Fatalf("backoff(%d) = %v, want within [0, %v]", attempt, d, window)
			}
		}
	}
}
