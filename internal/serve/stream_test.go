package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/testleak"
	"herdcats/internal/wire"
)

// slowSrc builds a distinct ~hundreds-of-ms simulation: six stores to
// one location give 6!/(3!3!) coherence interleavings times the rf
// choices, ~35k candidates. seed differentiates the content (and so the
// verdict key) without changing the cost.
func slowSrc(seed int) string {
	return fmt.Sprintf(`X86 slow%03d
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [x],$4 ;
 MOV [x],$2 | MOV [x],$5 ;
 MOV [x],$3 | MOV [x],$%d ;
 MOV EAX,[x] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`, seed, 10+seed)
}

// streamBatchFrames posts req with the NDJSON Accept header and decodes
// every frame.
func streamBatchFrames(t *testing.T, h http.Handler, req BatchRequest) (*httptest.ResponseRecorder, []any) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data))
	r.Header.Set("Accept", wire.ContentTypeNDJSON)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	var frames []any
	dec := wire.NewDecoder(rec.Body)
	for {
		frame, err := dec.Next()
		if err == io.EOF {
			return rec, frames
		}
		if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
		frames = append(frames, frame)
	}
}

// TestStreamBatchMatchesBuffered is the wire-format differential at the
// node: the same mixed batch (good tests, a parse error, a duplicate)
// through the buffered and streaming formats must carry identical
// verdicts row for row — for one worker and several, ordered and not.
func TestStreamBatchMatchesBuffered(t *testing.T) {
	req := BatchRequest{
		Tests: []string{
			catalogSource(t, "mp"),
			"this is not a litmus test",
			catalogSource(t, "mp"), // duplicate: dedup must survive streaming
			catalogSource(t, "sb"),
			catalogSource(t, "lb"),
		},
		Model: ModelSpec{Name: "power"},
	}
	for _, workers := range []int{1, 4} {
		for _, ordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/ordered=%v", workers, ordered), func(t *testing.T) {
				s := New(Config{Workers: workers})
				rec, body := postJSON(t, s.Handler(), "/v1/batch", req)
				if rec.Code != http.StatusOK {
					t.Fatalf("buffered status %d: %s", rec.Code, body)
				}
				var buffered BatchResponse
				if err := json.Unmarshal(body, &buffered); err != nil {
					t.Fatal(err)
				}

				// Fresh server: the stream must redo the work, not ride the
				// buffered run's cache.
				s2 := New(Config{Workers: workers})
				sreq := req
				sreq.Ordered = ordered
				srec, frames := streamBatchFrames(t, s2.Handler(), sreq)
				if srec.Code != http.StatusOK {
					t.Fatalf("stream status %d", srec.Code)
				}
				if ct := srec.Header().Get("Content-Type"); ct != wire.ContentTypeNDJSON {
					t.Fatalf("stream content-type %q", ct)
				}

				results := map[int]*wire.ResultFrame{}
				errs := map[int]*wire.ErrorFrame{}
				var sum *wire.SummaryFrame
				lastOrdered := -1
				for _, f := range frames {
					switch fr := f.(type) {
					case *wire.ResultFrame:
						results[fr.Index] = fr
						if ordered {
							if fr.Index <= lastOrdered {
								t.Fatalf("ordered stream emitted index %d after %d", fr.Index, lastOrdered)
							}
							lastOrdered = fr.Index
						}
					case *wire.ErrorFrame:
						errs[fr.Index] = fr
						if ordered {
							if fr.Index <= lastOrdered {
								t.Fatalf("ordered stream emitted index %d after %d", fr.Index, lastOrdered)
							}
							lastOrdered = fr.Index
						}
					case *wire.SummaryFrame:
						if sum != nil {
							t.Fatal("two summary frames")
						}
						sum = fr
					}
				}
				if sum == nil {
					t.Fatal("stream ended without a summary")
				}
				if frames[len(frames)-1] != any(sum) {
					t.Fatal("summary is not the terminal frame")
				}

				for i, row := range buffered.Report.Jobs {
					if row.Failed() {
						ef, ok := errs[i]
						if !ok {
							t.Fatalf("row %d failed buffered (%s) but streamed no error frame", i, row.Status)
						}
						if results[i] != nil {
							t.Fatalf("row %d has both frames", i)
						}
						if ef.Error.Message == "" {
							t.Fatalf("row %d error frame carries no message", i)
						}
						continue
					}
					rf, ok := results[i]
					if !ok {
						t.Fatalf("row %d has no result frame", i)
					}
					if rf.Result.Status != row.Status {
						t.Fatalf("row %d: streamed %s, buffered %s", i, rf.Result.Status, row.Status)
					}
					if rf.Key != buffered.Keys[i] {
						t.Fatalf("row %d: streamed key %q, buffered %q", i, rf.Key, buffered.Keys[i])
					}
					if rf.Result.States != nil && len(rf.Result.States) != len(row.States) {
						t.Fatalf("row %d: state histograms differ", i)
					}
				}
				if len(results)+len(errs) != len(req.Tests) {
					t.Fatalf("stream carried %d+%d frames for %d tests", len(results), len(errs), len(req.Tests))
				}
				for st, want := range buffered.Report.Counts {
					if sum.Counts[st] != want {
						t.Fatalf("summary counts[%s] = %d, buffered %d", st, sum.Counts[st], want)
					}
				}
				wantHits := 0
				for _, hit := range buffered.Cached {
					if hit {
						wantHits++
					}
				}
				if sum.CacheHits != wantHits {
					t.Fatalf("summary cache hits %d, buffered %d", sum.CacheHits, wantHits)
				}
				if sum.Tests != len(req.Tests) {
					t.Fatalf("summary tests = %d", sum.Tests)
				}
			})
		}
	}
}

// TestStreamHeartbeat pins the liveness frames: with a tight interval
// and one slow enumeration in flight, heartbeats appear between the
// stream's start and its only verdict.
func TestStreamHeartbeat(t *testing.T) {
	s := New(Config{Workers: 1, HeartbeatInterval: 20 * time.Millisecond})
	req := BatchRequest{
		Tests:  []string{slowSrc(1)},
		Model:  ModelSpec{Name: "tso"},
		Budget: BudgetSpec{TimeoutMS: 30_000},
	}
	rec, frames := streamBatchFrames(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	beats := 0
	for _, f := range frames {
		if hb, ok := f.(*wire.HeartbeatFrame); ok {
			beats++
			if hb.ElapsedMS < 0 {
				t.Fatalf("heartbeat elapsed %d", hb.ElapsedMS)
			}
		}
	}
	if beats == 0 {
		t.Fatalf("no heartbeat frames across %d frames of a slow stream", len(frames))
	}
}

// TestStreamClientDisconnect is the mid-stream cancellation acceptance
// test: a client that reads one verdict and hangs up must promptly (a)
// release every admission slot, (b) stop the campaign — far fewer
// simulations run than were requested — and (c) leak no goroutines.
func TestStreamClientDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("disconnect test simulates a few hundred ms of work")
	}
	leakCheck := testleak.Baseline()

	s := New(Config{Workers: 2, MaxConcurrent: 2, HeartbeatInterval: 10 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 24
	tests := make([]string, n)
	for i := range tests {
		tests[i] = slowSrc(i)
	}
	req := BatchRequest{
		Tests:  tests,
		Model:  ModelSpec{Name: "tso"},
		Budget: BudgetSpec{TimeoutMS: 30_000},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodPost, srv.URL+"/v1/batch", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Accept", wire.ContentTypeNDJSON)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(resp.Body)
	for {
		frame, err := dec.Next()
		if err != nil {
			t.Fatalf("before first verdict: %v", err)
		}
		if _, ok := frame.(*wire.ResultFrame); ok {
			break // one verdict observed: now vanish
		}
	}
	_ = resp.Body.Close()

	// The server must notice the disconnect via the request context and
	// wind the campaign down: slots drain without the batch finishing.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.adm.slots) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d admission slots still held long after disconnect", len(s.adm.slots))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.Cache().Stats(); int(st.Misses) >= n {
		t.Fatalf("campaign ran all %d simulations despite the disconnect", n)
	}

	srv.CloseClientConnections()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()
	leakCheck(t)
}

// stalledWriter is a ResponseWriter whose writes wait for release: a
// client that reads nothing until told to.
type stalledWriter struct {
	header  http.Header
	release chan struct{}
	mu      sync.Mutex
	body    bytes.Buffer
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}

func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

// TestStreamStalledClientBlocksCampaign pins the stream's backpressure at
// the node: with a client that reads nothing, the campaign workers block
// on the stream's bounded pending bytes long before the batch is done —
// as TCP backpressure stalled them when each frame was its own write —
// and once the client reads again every frame arrives and the writer
// goroutine exits.
func TestStreamStalledClientBlocksCampaign(t *testing.T) {
	defer testleak.Gone(t, "herdcats/internal/wire.(*Encoder).run")
	s := New(Config{Workers: 2})
	// A long test name makes every result frame a few KiB, so the batch's
	// frames far exceed what the stream may hold.
	src := strings.Replace(sbSrc, "X86 sb", "X86 sb"+strings.Repeat("x", 3000), 1)
	if rec, body := postJSON(t, s.Handler(), "/v1/run", RunRequest{Litmus: src, Model: ModelSpec{Name: "tso"}}); rec.Code != http.StatusOK {
		t.Fatalf("warming run: status %d: %s", rec.Code, body)
	}
	const n = wire.MaxBatchTests
	tests := make([]string, n)
	for i := range tests {
		tests[i] = src
	}
	data, err := json.Marshal(BatchRequest{Tests: tests, Model: ModelSpec{Name: "tso"}})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data))
	r.Header.Set("Accept", wire.ContentTypeNDJSON)
	w := &stalledWriter{header: http.Header{}, release: make(chan struct{})}
	hits0 := s.Cache().Stats().Hits
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, r)
	}()

	// Every row is a cache hit, so the hit count is the campaign's
	// progress: wait until it stops moving.
	last := uint64(0)
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(100 * time.Millisecond)
		hits := s.Cache().Stats().Hits - hits0
		if hits == last && hits > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still progressing (%d rows) with the client stalled", hits)
		}
		last = hits
	}
	select {
	case <-done:
		t.Fatal("the handler finished while its client read nothing")
	default:
	}
	t.Logf("%d of %d rows settled with the client stalled", last, n)
	if last >= n/2 {
		t.Fatalf("%d of %d rows settled with the client stalled: the stream is not bounding its pending bytes", last, n)
	}

	close(w.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler did not finish once the client read again")
	}
	results, summaries := 0, 0
	dec := wire.NewDecoder(&w.body)
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.(type) {
		case *wire.ResultFrame:
			results++
		case *wire.SummaryFrame:
			summaries++
		}
	}
	if results != n || summaries != 1 {
		t.Fatalf("%d results and %d summaries after the stall, want %d and 1", results, summaries, n)
	}
}

// TestTenantQuota pins the per-tenant token bucket: distinct cold tests
// beyond the burst shed with 429/tenant_quota and a Retry-After sized to
// the refill, cache hits bypass the quota entirely, and the tenant
// metrics expose both sides.
func TestTenantQuota(t *testing.T) {
	s := New(Config{Workers: 1, TenantRate: 0.001, TenantBurst: 2})
	h := s.Handler()
	run := func(tenant string, seed int) *httptest.ResponseRecorder {
		data, err := json.Marshal(RunRequest{Litmus: slowQuotaSrc(seed), Model: ModelSpec{Name: "tso"}})
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(data))
		if tenant != "" {
			r.Header.Set(wire.TenantHeader, tenant)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}

	// Two tokens of burst: two cold simulations pass, the third sheds.
	for i := 0; i < 2; i++ {
		if rec := run("acme", i); rec.Code != http.StatusOK {
			t.Fatalf("within-burst run %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	rec := run("acme", 2)
	checkShed(t, rec, rec.Body.Bytes())
	if !bytes.Contains(rec.Body.Bytes(), []byte(shedTenant)) {
		t.Fatalf("shed reason missing from %s", rec.Body.Bytes())
	}

	// A different tenant has its own bucket.
	if rec := run("rival", 3); rec.Code != http.StatusOK {
		t.Fatalf("rival tenant: status %d: %s", rec.Code, rec.Body.Bytes())
	}

	// Cache hits bypass the quota: the shed tenant can still re-read a
	// warm verdict.
	if rec := run("acme", 0); rec.Code != http.StatusOK {
		t.Fatalf("warm re-read: status %d: %s", rec.Code, rec.Body.Bytes())
	}

	page := httptest.NewRecorder()
	h.ServeHTTP(page, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := page.Body.String()
	for _, want := range []string{
		`herdd_tenant_admitted_total{tenant="acme"} 2`,
		`herdd_tenant_shed_total{tenant="acme"} 1`,
		`herdd_tenant_admitted_total{tenant="rival"} 1`,
		"herdd_tenant_tracked 2",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// slowQuotaSrc returns cheap distinct sources for quota tests (the cost
// is irrelevant there; distinctness defeats the cache).
func slowQuotaSrc(seed int) string {
	return fmt.Sprintf(`X86 quota%03d
{ }
 P0 | P1 ;
 MOV [x],$%d | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`, seed, seed+1)
}

// TestTenantQuotaAppliesToStreams pins that the quota meters streamed
// batches too: with a one-token bucket, a two-cold-test stream carries
// one verdict and one overloaded error frame.
func TestTenantQuotaAppliesToStreams(t *testing.T) {
	s := New(Config{Workers: 1, TenantRate: 0.001, TenantBurst: 1})
	req := BatchRequest{
		Tests:   []string{slowQuotaSrc(10), slowQuotaSrc(11)},
		Model:   ModelSpec{Name: "tso"},
		Ordered: true,
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data))
	r.Header.Set("Accept", wire.ContentTypeNDJSON)
	r.Header.Set(wire.TenantHeader, "meterme")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)

	var oks, sheds int
	dec := wire.NewDecoder(rec.Body)
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
			if f.Result.Status == campaign.StatusOK {
				oks++
			}
		case *wire.ErrorFrame:
			if f.Error.Code == "overloaded" {
				sheds++
			}
		}
	}
	if oks != 1 || sheds != 1 {
		t.Fatalf("one-token stream carried %d verdicts and %d sheds, want 1 and 1", oks, sheds)
	}
}
