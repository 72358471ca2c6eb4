package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/catalog"
	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// collectStream runs one BatchStream and sorts the frames by kind.
func collectStream(t *testing.T, c *Client, req wire.BatchRequest) (map[int]*wire.ResultFrame, map[int]*wire.ErrorFrame, *wire.SummaryFrame) {
	t.Helper()
	results := map[int]*wire.ResultFrame{}
	errs := map[int]*wire.ErrorFrame{}
	var sum *wire.SummaryFrame
	err := c.BatchStream(context.Background(), req, func(frame any) error {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if results[f.Index] != nil || errs[f.Index] != nil {
				t.Errorf("index %d emitted twice", f.Index)
			}
			results[f.Index] = f
		case *wire.ErrorFrame:
			if f.Index < 0 {
				t.Errorf("stream-level error: %s", f.Error.Message)
				return nil
			}
			if results[f.Index] != nil || errs[f.Index] != nil {
				t.Errorf("index %d emitted twice", f.Index)
			}
			errs[f.Index] = f
		case *wire.SummaryFrame:
			if sum != nil {
				t.Error("two summary frames")
			}
			sum = f
		}
		return nil
	})
	if err != nil {
		t.Fatalf("BatchStream: %v", err)
	}
	if sum == nil {
		t.Fatal("stream ended without a summary")
	}
	return results, errs, sum
}

// matchBufferedStream is the order-insensitive differential both the
// node-direct and through-gateway tests share: every buffered row must
// have exactly one streamed frame with the same verdict — status,
// candidate and valid counts, final-state histogram and key. Cached and
// ElapsedMS are left out: the second run of a batch hits the cache.
func matchBufferedStream(t *testing.T, buffered *wire.BatchResponse, results map[int]*wire.ResultFrame, errs map[int]*wire.ErrorFrame, sum *wire.SummaryFrame) {
	t.Helper()
	n := len(buffered.Report.Jobs)
	if len(results)+len(errs) != n {
		t.Fatalf("stream carried %d frames for %d tests", len(results)+len(errs), n)
	}
	for i, row := range buffered.Report.Jobs {
		if row.Failed() {
			if errs[i] == nil {
				t.Errorf("row %d (%s): buffered %s but streamed a result", i, row.Name, row.Status)
			}
			continue
		}
		rf := results[i]
		if rf == nil {
			t.Errorf("row %d (%s): buffered %s but streamed an error: %+v", i, row.Name, row.Status, errs[i])
			continue
		}
		got := rf.Result
		if got.Status != row.Status || got.Candidates != row.Candidates || got.Valid != row.Valid ||
			!maps.Equal(got.States, row.States) || rf.Key != buffered.Keys[i] {
			t.Errorf("row %d (%s): streamed %s %d/%d %v key %q, buffered %s %d/%d %v key %q", i, row.Name,
				got.Status, got.Valid, got.Candidates, got.States, rf.Key,
				row.Status, row.Valid, row.Candidates, row.States, buffered.Keys[i])
		}
	}
	if sum.Tests != n {
		t.Errorf("summary tests = %d, want %d", sum.Tests, n)
	}
	for st, want := range buffered.Report.Counts {
		if sum.Counts[st] != want {
			t.Errorf("summary counts[%s] = %d, buffered %d", st, sum.Counts[st], want)
		}
	}
}

// TestClientBatchStream pins the client side of the streaming wire
// format against a real node: same verdicts as the buffered call, one
// frame per test, a single terminal summary.
func TestClientBatchStream(t *testing.T) {
	s := serve.New(serve.Config{Workers: 4})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL, Policy{}, nil)

	req := wire.BatchRequest{
		Tests: []string{sbVariant(0), "garbage", sbVariant(1), sbVariant(2)},
		Model: wire.ModelSpec{Name: "tso"},
	}
	buffered, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, sum := collectStream(t, c, req)
	matchBufferedStream(t, buffered, results, errs, sum)
}

// TestGatewayStreamingDifferential is the PR's acceptance differential:
// the whole catalogue through herd-gw in both wire formats, for one
// backend worker and several, must produce identical verdict sets
// (order-insensitive), with the gateway fanning the stream out across
// three real backends.
func TestGatewayStreamingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalogue differential simulates the whole catalogue twice per config")
	}
	var tests []string
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Source)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			servers := make([]*serve.Server, 3)
			var cfg GatewayConfig
			for i := range servers {
				servers[i] = serve.New(serve.Config{Workers: workers})
				hs := httptest.NewServer(servers[i].Handler())
				t.Cleanup(hs.Close)
				cfg.Backends = append(cfg.Backends, hs.URL)
			}
			cfg.HeartbeatInterval = 50 * time.Millisecond
			gw, err := NewGateway(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			ghs := httptest.NewServer(gw.Handler())
			t.Cleanup(ghs.Close)
			c := NewClient(ghs.URL, Policy{Timeout: 2 * time.Minute}, nil)

			req := wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "power"}}
			buffered, err := c.Batch(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			results, errs, sum := collectStream(t, c, req)
			matchBufferedStream(t, buffered, results, errs, sum)
		})
	}
}

// TestGatewayErrorEnvelopeCompat is the byte-compatibility contract of
// satellite hardening: for the same failure, herd-gw's error body must
// be byte-identical to herdd's envelope, and a shed backend's
// Retry-After must travel through verbatim — not re-derived.
func TestGatewayErrorEnvelopeCompat(t *testing.T) {
	// A backend that sheds everything with a distinctive Retry-After.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		w.Header().Set(wire.RetryAfterHeader, "17")
		wire.WriteError(w, http.StatusTooManyRequests, "overloaded (queue_full): retry after 17s")
	}))
	defer backend.Close()

	gw, err := NewGateway(GatewayConfig{
		Backends: []string{backend.URL},
		Policy:   Policy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	body, _ := json.Marshal(wire.RunRequest{Litmus: sbVariant(9), Model: wire.ModelSpec{Name: "tso"}})
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get(wire.RetryAfterHeader); ra != "17" {
		t.Fatalf("Retry-After = %q, want the backend's verbatim \"17\"", ra)
	}

	// Byte-for-byte: what herdd would have written for this failure.
	want := httptest.NewRecorder()
	wire.WriteError(want, http.StatusTooManyRequests, "overloaded (queue_full): retry after 17s")
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("gateway envelope diverges from herdd's:\n gw:    %s\n herdd: %s", rec.Body.Bytes(), want.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
		t.Fatalf("content-type %q", ct)
	}
}

// TestGatewayStreamOrdered pins request-order delivery through the
// gateway's merge even though three backends race to produce frames.
func TestGatewayStreamOrdered(t *testing.T) {
	gw, _ := newFleet(t, 3, GatewayConfig{})
	ghs := httptest.NewServer(gw.Handler())
	t.Cleanup(ghs.Close)

	n := 40
	tests := make([]string, n)
	for i := range tests {
		tests[i] = sbVariant(100 + i)
	}
	body, _ := json.Marshal(wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "tso"}, Ordered: true})
	hr, _ := http.NewRequest(http.MethodPost, ghs.URL+"/v1/batch", bytes.NewReader(body))
	hr.Header.Set("Accept", wire.ContentTypeNDJSON)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeNDJSON {
		t.Fatalf("content-type %q", ct)
	}
	dec := wire.NewDecoder(resp.Body)
	next := 0
	for {
		frame, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if f.Index != next {
				t.Fatalf("ordered stream emitted index %d, want %d", f.Index, next)
			}
			if f.Result.Status != campaign.StatusOK {
				t.Fatalf("row %d: %s (%s)", f.Index, f.Result.Status, f.Result.Reason)
			}
			next++
		case *wire.ErrorFrame:
			t.Fatalf("row %d errored: %+v", f.Index, f.Error)
		}
	}
	if next != n {
		t.Fatalf("stream delivered %d of %d rows", next, n)
	}
}

// TestGatewaySplitsOversizedGroups: a home group larger than herdd's
// batch limit travels upstream as sub-batches of at most
// wire.MaxBatchTests rows. 300 rows through a one-backend gateway cost
// exactly two upstream streams — no 413, no per-row fallback, no
// reroutes — over both wire formats.
func TestGatewaySplitsOversizedGroups(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch chaosBatch
	}{
		{"buffered", bufferedChaosBatch},
		{"streamed", streamedChaosBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var batches, runs atomic.Int64
			s := serve.New(serve.Config{})
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/batch":
					batches.Add(1)
				case "/v1/run":
					runs.Add(1)
				}
				s.Handler().ServeHTTP(w, r)
			}))
			defer backend.Close()
			gw, err := NewGateway(GatewayConfig{Backends: []string{backend.URL}, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			front := httptest.NewServer(gw.Handler())
			defer front.Close()
			c := NewClient(front.URL, Policy{MaxAttempts: 1}, nil)

			tests, wantOK := chaosTests(300)
			rows := tc.batch(t, context.Background(), c, wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "tso"}})
			checkChaosRows(t, rows, wantOK)
			if got := batches.Load(); got != 2 {
				t.Errorf("%d upstream /v1/batch requests, want 2", got)
			}
			if got := runs.Load(); got != 0 {
				t.Errorf("%d upstream /v1/run requests, want 0", got)
			}
			if got := gw.Metrics().Counter("gw_reroutes_total").Value(); got != 0 {
				t.Errorf("gw_reroutes_total = %d, want 0", got)
			}
		})
	}
}
