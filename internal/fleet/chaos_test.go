package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/fleet/faultproxy"
	"herdcats/internal/serve"
	"herdcats/internal/testleak"
	"herdcats/internal/wire"
)

// chaosTests generates n store-buffering variants whose tso verdicts are
// known by construction: even indices ask for the classic relaxed
// outcome 0/0, which x86-TSO forbids only with fences — absent here, so
// it is Allowed; odd indices ask for a value (2) that no thread ever
// stores, which is unreachable on any model — Forbidden. Distinct names
// give every test its own verdict key, so the batch spreads across the
// whole fleet.
func chaosTests(n int) (tests []string, wantOK []bool) {
	tests = make([]string, n)
	wantOK = make([]bool, n)
	for i := range tests {
		cond := `exists (0:EAX=0 /\ 1:EAX=0)` // reachable: Allowed under tso
		if i%2 == 1 {
			cond = `exists (0:EAX=2 /\ 1:EAX=2)` // value never stored: Forbidden
		}
		tests[i] = fmt.Sprintf(`X86 chaos%04d
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
%s`, i, cond)
		wantOK[i] = i%2 == 0
	}
	return tests, wantOK
}

// checkChaosRows holds a batch's rows to the chaos bar: every verdict,
// exactly once, in request order, correct.
func checkChaosRows(t *testing.T, rows []*campaign.JobResult, wantOK []bool) {
	t.Helper()
	if len(rows) != len(wantOK) {
		t.Fatalf("batch returned %d rows for a %d-test batch", len(rows), len(wantOK))
	}
	for i, row := range rows {
		if row == nil {
			t.Errorf("row %d never came back", i)
			continue
		}
		if wantName := fmt.Sprintf("chaos%04d", i); row.Name != wantName {
			t.Fatalf("row %d is %q, want %q — rows lost or reordered", i, row.Name, wantName)
		}
		want := campaign.StatusForbidden
		if wantOK[i] {
			want = campaign.StatusOK
		}
		if row.Status != want {
			t.Errorf("row %d (%s): status %s (reason %q), want %s", i, row.Name, row.Status, row.Reason, want)
		}
	}
}

// servedCounter wraps a backend handler and counts the verdicts it has
// served: one per /v1/run response, one per NDJSON line on /v1/batch.
// It is the chaos test's kill trigger, which a buffered caller cannot
// drive from its own progress.
func servedCounter(h http.Handler, served *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/batch":
			h.ServeHTTP(lineCounter{w, served}, r)
		case "/v1/run":
			h.ServeHTTP(w, r)
			served.Add(1)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// lineCounter counts the newlines written through it, keeping the
// per-frame flush of a streamed batch.
type lineCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w lineCounter) Write(p []byte) (int, error) {
	w.n.Add(int64(bytes.Count(p, []byte{'\n'})))
	return w.ResponseWriter.Write(p)
}

func (w lineCounter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// chaosBatch sends one batch through the gateway and returns its rows in
// request order, nil where a row never came back.
type chaosBatch func(t *testing.T, ctx context.Context, c *Client, req wire.BatchRequest) []*campaign.JobResult

// bufferedChaosBatch reads the batch as one JSON document.
func bufferedChaosBatch(t *testing.T, ctx context.Context, c *Client, req wire.BatchRequest) []*campaign.JobResult {
	resp, err := c.Batch(ctx, req)
	if err != nil {
		t.Errorf("buffered batch failed: %v", err)
		return nil
	}
	rows := make([]*campaign.JobResult, len(resp.Report.Jobs))
	for i := range resp.Report.Jobs {
		rows[i] = &resp.Report.Jobs[i]
	}
	if n := resp.Report.Counts[campaign.StatusError] + resp.Report.Counts[campaign.StatusSkipped]; n != 0 {
		t.Errorf("report counts %d errored/skipped rows, want 0", n)
	}
	return rows
}

// streamedChaosBatch reads the batch as NDJSON frames: one frame per
// index and a single terminal summary.
func streamedChaosBatch(t *testing.T, ctx context.Context, c *Client, req wire.BatchRequest) []*campaign.JobResult {
	rows := make([]*campaign.JobResult, len(req.Tests))
	summaries := 0
	err := c.BatchStream(ctx, req, func(frame any) error {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			if f.Index < 0 || f.Index >= len(rows) {
				t.Errorf("result frame for out-of-range index %d", f.Index)
			} else if rows[f.Index] != nil {
				t.Errorf("index %d delivered twice", f.Index)
			} else {
				r := f.Result
				rows[f.Index] = &r
			}
		case *wire.ErrorFrame:
			t.Errorf("error frame for index %d under chaos: %+v", f.Index, f.Error)
		case *wire.SummaryFrame:
			summaries++
			if f.Tests != len(rows) {
				t.Errorf("summary covers %d tests, want %d", f.Tests, len(rows))
			}
			if n := f.Counts[campaign.StatusError] + f.Counts[campaign.StatusSkipped]; n != 0 {
				t.Errorf("summary counts %d errored/skipped rows, want 0", n)
			}
		}
		return nil
	})
	if err != nil {
		t.Errorf("streamed batch failed: %v", err)
	}
	if summaries != 1 {
		t.Errorf("stream carried %d summary frames, want exactly 1", summaries)
	}
	return rows
}

// TestChaosBatchSurvivesFaults is the fleet's acceptance test, over both
// batch wire formats: a 500-test batch through the gateway while, on a
// seeded fault schedule, one backend runs +500ms slow with a 25% 5xx
// rate and another is killed outright mid-batch. The batch must still
// return every verdict exactly once, each one correct, with no error or
// skipped rows — and tearing everything down must leak no goroutines.
// (`make chaos-smoke` runs both subtests via -run 'TestChaos'.)
func TestChaosBatchSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos batch takes tens of seconds")
	}
	for _, tc := range []struct {
		name  string
		batch chaosBatch
	}{
		{"buffered", bufferedChaosBatch},
		{"streamed", streamedChaosBatch},
	} {
		t.Run(tc.name, func(t *testing.T) { runChaos(t, tc.batch) })
	}
}

func runChaos(t *testing.T, batch chaosBatch) {
	leakCheck := testleak.Baseline()

	// Three real herdd backends, each behind its own fault proxy. The
	// gateway only ever sees the proxied addresses.
	const nBackends = 3
	var served atomic.Int64 // verdicts the backends have handed out
	proxies := make([]*faultproxy.Proxy, nBackends)
	backendURLs := make([]string, nBackends)
	var servers []*httptest.Server
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	for i := 0; i < nBackends; i++ {
		up := httptest.NewServer(servedCounter(serve.New(serve.Config{}).Handler(), &served))
		defer up.Close() // idempotent; the leak check closes it first
		p, err := faultproxy.New(up.URL, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		front := httptest.NewServer(p)
		defer front.Close()
		servers = append(servers, up, front)
		backendURLs[i] = front.URL
	}

	gw, err := NewGateway(GatewayConfig{
		Backends:          backendURLs,
		Policy:            Policy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Timeout: 15 * time.Second},
		ProbeInterval:     250 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   300 * time.Millisecond,
		HeartbeatInterval: time.Second,
		HTTPClient:        &http.Client{Transport: transport},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwFront := httptest.NewServer(gw.Handler())
	defer gwFront.Close()
	client := NewClient(gwFront.URL, Policy{MaxAttempts: 1, Timeout: 2 * time.Minute}, &http.Client{Transport: transport})

	// The seeded fault schedule: backend 1 degrades immediately (+500ms
	// on every request, a quarter of them answered 503 — a whole home
	// group travels as one upstream stream, so a lower rate would
	// rarely draw a fault); backend 2 is killed once the fleet has
	// served 100 verdicts, with the batch still in full flight.
	proxies[1].SetLatency(500 * time.Millisecond)
	proxies[1].SetErrorRate(0.25)

	const nTests = 500
	tests, wantOK := chaosTests(nTests)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan []*campaign.JobResult, 1)
	go func() {
		done <- batch(t, ctx, client, wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "tso"}})
	}()

	var rows []*campaign.JobResult
	killed := false
	for finished := false; !finished; {
		select {
		case rows = <-done:
			finished = true
		case <-time.After(5 * time.Millisecond):
			if !killed && served.Load() >= 100 {
				proxies[2].Kill()
				killed = true
			}
		}
	}
	if !killed {
		t.Fatal("batch finished before the mid-batch kill fired — the kill path was never exercised")
	}

	checkChaosRows(t, rows, wantOK)
	if injected := proxies[1].Injected(); injected == 0 {
		t.Error("the degraded backend never injected a 503 — the 5xx burst path was not exercised")
	} else {
		t.Logf("degraded backend injected %d 503s; the fleet served %d verdicts for %d tests",
			injected, served.Load(), nTests)
	}

	// Teardown must return the process to its pre-test goroutine count
	// (allowing a little slack for the test server machinery winding
	// down). Everything is closed explicitly here — the deferred closes
	// are idempotent backstops for early-failure paths — including the
	// default transport's idle pool, which the fault proxies' reverse
	// proxies dial through.
	gw.Close()
	gwFront.Close()
	for _, s := range servers {
		s.Close()
	}
	transport.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	leakCheck(t)
}
