package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"herdcats/internal/wire"
)

// Policy tunes the client's resilience behaviour. The zero value retries
// transient failures three times with full-jitter backoff.
type Policy struct {
	// MaxAttempts bounds the tries per request, the first included
	// (<= 0 selects 3).
	MaxAttempts int

	// BaseBackoff seeds the full-jitter backoff window, which doubles
	// per retry (<= 0 selects 50ms).
	BaseBackoff time.Duration

	// MaxBackoff caps the backoff window (<= 0 selects 2s).
	MaxBackoff time.Duration

	// Timeout bounds one attempt's wall clock (<= 0 selects 30s). The
	// caller's context deadline still wins when tighter.
	Timeout time.Duration
}

func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p Policy) baseBackoff() time.Duration {
	if p.BaseBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseBackoff
}

func (p Policy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return p.MaxBackoff
}

func (p Policy) timeout() time.Duration {
	if p.Timeout <= 0 {
		return 30 * time.Second
	}
	return p.Timeout
}

// backoff draws the full-jitter pause before retry number attempt
// (0-based): uniform over [0, window], window doubling from BaseBackoff
// up to MaxBackoff.
func (p Policy) backoff(attempt int) time.Duration {
	window := p.baseBackoff()
	for i := 0; i < attempt && window < p.maxBackoff(); i++ {
		window *= 2
	}
	if lim := p.maxBackoff(); window > lim {
		window = lim
	}
	return rand.N(window + 1)
}

// Error is a classified herdd request failure. Status 0 means the
// request never produced an HTTP response (connect error, reset, timeout).
type Error struct {
	Status int    // HTTP status, 0 for transport failures
	Code   string // error-envelope code when the body carried one
	Msg    string
	Cause  error // underlying transport error, when any

	// RetryAfter is the backend's verbatim Retry-After header on a shed
	// (429) response, so a gateway can pass the backend's backoff hint
	// through to the edge instead of inventing its own.
	RetryAfter string

	// retryable marks a transient failure — a connect error, 429
	// (overload), any 5xx — which may be retried or rerouted; a permanent
	// one (the other 4xx envelopes: bad litmus, unknown model …) will fail
	// identically everywhere and must not be.
	retryable bool
}

func (e *Error) Error() string {
	switch {
	case e.Status == 0:
		return fmt.Sprintf("herdd: transport: %s", e.Msg)
	case e.Code != "":
		return fmt.Sprintf("herdd: %d %s: %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("herdd: %d: %s", e.Status, e.Msg)
}

func (e *Error) Unwrap() error { return e.Cause }

// Retryable reports whether err is worth another attempt: whether its
// chain holds a *Error marked transient.
func Retryable(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.retryable
}

// classify builds the Error for one failed exchange.
func classify(status int, code, msg string, cause error) *Error {
	e := &Error{Status: status, Code: code, Msg: msg, Cause: cause}
	switch {
	case status == 0: // never reached the backend; safe to resend
		e.retryable = true
	case status == http.StatusTooManyRequests: // shed; backend says come back
		e.retryable = true
	case status >= 500: // backend or proxy trouble, not the request's fault
		e.retryable = true
	}
	return e
}

// Stats counts the client's resilience events (monotonic; atomic reads).
type Stats struct {
	Attempts atomic.Uint64 // HTTP exchanges started
	Retries  atomic.Uint64 // extra attempts after a retryable failure
	Failures atomic.Uint64 // requests that exhausted every attempt
}

// Client is a resilient client for one herdd backend: per-attempt
// timeouts, deadline-budget propagation (X-Deadline), and retry with
// full-jitter backoff on transient failures. One Client maps to one
// backend; the Gateway owns the cross-backend routing.
type Client struct {
	base  string // http://host:port, no trailing slash
	hc    *http.Client
	pol   Policy
	stats Stats
}

// NewClient builds a client for the herdd at base (e.g.
// "http://127.0.0.1:8787"). httpClient nil selects a default with
// connection pooling; the Policy zero value is documented above.
func NewClient(base string, pol Policy, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient, pol: pol}
}

// Base returns the backend's base URL.
func (c *Client) Base() string { return c.base }

// Stats exposes the client's resilience counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Run simulates one litmus test via POST /v1/run, retrying transient
// failures per the policy. The returned error, when non-nil, is an
// *Error carrying the classification.
func (c *Client) Run(ctx context.Context, req wire.RunRequest) (*wire.RunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, classify(http.StatusBadRequest, "bad_request", err.Error(), err)
	}
	var resp wire.RunResponse
	if err := c.do(ctx, "/v1/run", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch simulates many tests via POST /v1/batch with the same retry
// discipline.
func (c *Client) Batch(ctx context.Context, req wire.BatchRequest) (*wire.BatchResponse, error) {
	body := wire.AppendBatchRequest(nil, &req)
	var resp wire.BatchResponse
	if err := c.do(ctx, "/v1/batch", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz probes GET /healthz once — no retries: the probe loop is the
// retry.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return classify(0, "", err.Error(), err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return classify(0, "", err.Error(), err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return classify(resp.StatusCode, "", "unhealthy", nil)
	}
	return nil
}

// do drives one logical request through attempts and backoff.
func (c *Client) do(ctx context.Context, path string, body []byte, out any) error {
	var last error
	for attempt := 0; attempt < c.pol.maxAttempts(); attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(1)
			timer := time.NewTimer(c.pol.backoff(attempt - 1))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return classify(0, "", ctx.Err().Error(), ctx.Err())
			}
		}
		err := c.attempt(ctx, path, body, out)
		if err == nil {
			return nil
		}
		last = err
		if !Retryable(err) || ctx.Err() != nil {
			break
		}
	}
	c.stats.Failures.Add(1)
	return last
}

// attempt performs exactly one HTTP exchange, propagating the remaining
// deadline budget via X-Deadline so the backend can shed what cannot
// finish in time.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any) error {
	c.stats.Attempts.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.pol.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return classify(0, "", err.Error(), err)
	}
	req.Header.Set("Content-Type", "application/json")
	stampHeaders(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return classify(0, "", err.Error(), err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return classifyResponse(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes)).Decode(out); err != nil {
		// A truncated or garbled body is a transport-class failure: the
		// backend may answer intact on retry.
		e := classify(0, "", fmt.Sprintf("decoding response: %v", err), err)
		return e
	}
	return nil
}

// stampHeaders propagates the hop-by-hop request metadata: the remaining
// deadline budget (X-Deadline) so the backend can shed what cannot finish
// in time, and the tenant quota account (X-Tenant) so the whole fleet
// charges one ledger per tenant.
func stampHeaders(ctx context.Context, req *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl).Milliseconds()
		if remaining < 1 {
			remaining = 1 // expired budgets are the backend's call to shed
		}
		req.Header.Set(wire.DeadlineHeader, strconv.FormatInt(remaining, 10))
	}
	if tenant := wire.Tenant(ctx); tenant != "" {
		req.Header.Set(wire.TenantHeader, tenant)
	}
}

// maxResponseBytes bounds a response body read (a full batch report over
// 256 tests fits comfortably).
const maxResponseBytes = 64 << 20

// classifyResponse turns a non-200 response into the classified error,
// decoding the serve error envelope when present.
func classifyResponse(resp *http.Response) *Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error wire.ErrorBody `json:"error"`
	}
	code, msg := "", strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		code, msg = env.Error.Code, env.Error.Message
	}
	e := classify(resp.StatusCode, code, msg, nil)
	e.RetryAfter = resp.Header.Get(wire.RetryAfterHeader)
	return e
}

// drain consumes and closes a response body so the underlying connection
// is reusable.
func drain(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	_ = rc.Close()
}
