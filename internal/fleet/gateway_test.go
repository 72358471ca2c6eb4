package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/obs"
	"herdcats/internal/serve"
)

// newFleet starts n real in-process herdd backends and a gateway over
// them, returning the gateway and the backing serve.Servers (for cache
// statistics). Cleanup is registered on t.
func newFleet(t *testing.T, n int, cfg GatewayConfig) (*Gateway, []*serve.Server) {
	t.Helper()
	servers := make([]*serve.Server, n)
	for i := 0; i < n; i++ {
		servers[i] = serve.New(serve.Config{})
		hs := httptest.NewServer(servers[i].Handler())
		t.Cleanup(hs.Close)
		cfg.Backends = append(cfg.Backends, hs.URL)
	}
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw, servers
}

func sbVariant(i int) string {
	return strings.Replace(sbSrc, "X86 sb", fmt.Sprintf("X86 sb%04d", i), 1)
}

// TestGatewayRoutesAndCaches: repeated runs of one test land on one
// backend (key affinity), so exactly one backend simulates and the
// repeat is a cache hit there.
func TestGatewayKeyAffinity(t *testing.T) {
	gw, servers := newFleet(t, 3, GatewayConfig{ProbeInterval: time.Hour})
	req := serve.RunRequest{Litmus: sbSrc, Model: serve.ModelSpec{Name: "tso"}}

	first, err := gw.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Verdict != "Allowed" || first.Cached {
		t.Fatalf("first run: verdict %q cached %v, want a fresh Allowed", first.Verdict, first.Cached)
	}
	second, err := gw.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Errorf("second run: cached=%v key match=%v, want a hit on the same backend", second.Cached, second.Key == first.Key)
	}
	var misses, hits uint64
	for _, s := range servers {
		misses += s.Cache().Stats().Misses
		hits += s.Cache().Stats().Hits
	}
	if misses != 1 || hits != 1 {
		t.Errorf("fleet-wide misses=%d hits=%d, want 1/1 (one home backend)", misses, hits)
	}
}

// TestGatewayFailover: with the home backend down, requests reroute to a
// surviving backend and still answer correctly; the dead backend's
// breaker opens after enough failures.
func TestGatewayFailover(t *testing.T) {
	servers := make([]*serve.Server, 2)
	urls := make([]string, 2)
	var hss [2]*httptest.Server
	for i := range servers {
		servers[i] = serve.New(serve.Config{})
		hss[i] = httptest.NewServer(servers[i].Handler())
		defer hss[i].Close()
		urls[i] = hss[i].URL
	}
	gw, err := NewGateway(GatewayConfig{
		Backends:         urls,
		Policy:           Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
		ProbeInterval:    time.Hour, // probes out of the way; the request path drives the breaker
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Kill backend 0. Any key homed there must fail over to backend 1.
	hss[0].Close()
	deadName := strings.TrimRight(urls[0], "/")

	routedToDead := false
	for i := 0; i < 16; i++ {
		req := serve.RunRequest{Litmus: sbVariant(i), Model: serve.ModelSpec{Name: "tso"}}
		scope, merr := gw.scope(req.Model, req.Budget)
		key, cerr := gw.verdictKey(req.Litmus, scope, merr)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if rendezvous(key, gw.names)[0] == deadName {
			routedToDead = true
		}
		resp, err := gw.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("run %d with one dead backend: %v", i, err)
		}
		if resp.Verdict != "Allowed" {
			t.Fatalf("run %d: verdict %q, want Allowed", i, resp.Verdict)
		}
	}
	if !routedToDead {
		t.Fatal("no key homed on the dead backend; the failover path never ran")
	}
	if st := gw.backends[deadName].breaker.State(); st != BreakerOpen {
		t.Errorf("dead backend's breaker is %v, want open", st)
	}
	_, page := gwMetrics(t, gw)
	if !strings.Contains(page, "gw_reroutes_total") {
		t.Error("reroute counter missing from gateway metrics")
	}
}

func gwMetrics(t *testing.T, gw *Gateway) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec, rec.Body.String()
}

// TestGatewayDuplicatesSimulateOnce: concurrent duplicate requests cost
// one simulation fleet-wide. The gateway does no deduplication of its
// own: equal keys share a home backend, and that backend's memo
// single-flight joins them, so the home node answers the other seven as
// hits or waits.
func TestGatewayDuplicatesSimulateOnce(t *testing.T) {
	gw, servers := newFleet(t, 2, GatewayConfig{ProbeInterval: time.Hour})
	req := serve.RunRequest{Litmus: sbSrc, Model: serve.ModelSpec{Name: "tso"}}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = gw.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	var misses uint64
	for _, s := range servers {
		st := s.Cache().Stats()
		misses += st.Misses
		if st.Misses == 1 && st.Hits+st.Waits != n-1 {
			t.Errorf("home node: hits %d + waits %d, want %d", st.Hits, st.Waits, n-1)
		}
	}
	if misses != 1 {
		t.Errorf("fleet-wide misses = %d for %d duplicate requests, want 1", misses, n)
	}
}

// TestGatewayCanonicalEqualityOneMiss: two batch rows that differ only in
// comments, whitespace and init order are byte-different, so each misses
// the gateway's raw-bytes alias once, but they canonicalise to one verdict
// key — one home backend, one simulation fleet-wide. Sending the batch
// again is answered from the alias, with the same keys.
func TestGatewayCanonicalEqualityOneMiss(t *testing.T) {
	gw, servers := newFleet(t, 3, GatewayConfig{ProbeInterval: time.Hour})
	a := `X86 sb
{ x=5; y=7; }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=7 /\ 1:EAX=5)`
	b := `X86 sb (* store buffering, reformatted *)
{
  y=7;
  x=5;
}
 P0          | P1 ;
 MOV [x],$1  | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=7 /\ 1:EAX=5)`
	batch := func() serve.BatchResponse {
		t.Helper()
		body, _ := json.Marshal(serve.BatchRequest{Tests: []string{a, b}, Model: serve.ModelSpec{Name: "tso"}})
		rec := httptest.NewRecorder()
		gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for i, job := range resp.Report.Jobs {
			if job.Status != campaign.StatusOK {
				t.Fatalf("row %d: %s (%s), want OK", i, job.Status, job.Reason)
			}
		}
		return resp
	}

	first := batch()
	if first.Keys[0] == "" || first.Keys[0] != first.Keys[1] {
		t.Fatalf("keys %q, want one shared key", first.Keys)
	}
	var misses, homes uint64
	for _, s := range servers {
		st := s.Cache().Stats()
		misses += st.Misses
		if st.Entries > 0 {
			homes++
		}
	}
	if misses != 1 || homes != 1 {
		t.Errorf("fleet-wide misses = %d on %d backends, want 1 on 1", misses, homes)
	}
	if st := gw.models.Stats(); st.AliasMisses != 2 || st.AliasHits != 0 {
		t.Errorf("gateway alias hits/misses = %d/%d after the first batch, want 0/2", st.AliasHits, st.AliasMisses)
	}

	second := batch()
	if second.Keys[0] != first.Keys[0] || second.Keys[1] != first.Keys[1] {
		t.Errorf("keys changed on the alias hit: %q then %q", first.Keys, second.Keys)
	}
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if h, m := samples["gw_alias_hits_total"], samples["gw_alias_misses_total"]; h != 2 || m != 2 {
		t.Errorf("gw_alias_hits_total/gw_alias_misses_total = %v/%v after the repeat, want 2/2", h, m)
	}
	misses = 0
	for _, s := range servers {
		misses += s.Cache().Stats().Misses
	}
	if misses != 1 {
		t.Errorf("fleet-wide misses = %d after the repeat, want 1", misses)
	}
}

// TestGatewayBatch: a batch fans out across backends and reassembles in
// request order, parse failures costing only their row.
func TestGatewayBatch(t *testing.T) {
	gw, _ := newFleet(t, 2, GatewayConfig{ProbeInterval: time.Hour})
	tests := []string{sbVariant(0), "not litmus at all", sbVariant(1)}

	body, _ := json.Marshal(serve.BatchRequest{Tests: tests, Model: serve.ModelSpec{Name: "tso"}})
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Report.Jobs) != 3 {
		t.Fatalf("report has %d rows, want 3", len(resp.Report.Jobs))
	}
	if resp.Report.Jobs[0].Status != campaign.StatusOK || resp.Report.Jobs[2].Status != campaign.StatusOK {
		t.Errorf("good rows: %s / %s, want OK / OK", resp.Report.Jobs[0].Status, resp.Report.Jobs[2].Status)
	}
	if resp.Report.Jobs[1].Status != campaign.StatusError {
		t.Errorf("bad row: %s, want Error", resp.Report.Jobs[1].Status)
	}
	if resp.Keys[0] == "" || resp.Keys[2] == "" || resp.Keys[1] != "" {
		t.Errorf("keys = %q, want set/empty/set", resp.Keys)
	}
}

// TestGatewayPermanentErrorsPropagate: a permanent client error (bad
// model) surfaces once through the gateway envelope, without burning
// retries or tripping breakers.
func TestGatewayPermanentErrors(t *testing.T) {
	gw, _ := newFleet(t, 2, GatewayConfig{ProbeInterval: time.Hour})
	body, _ := json.Marshal(serve.RunRequest{Litmus: sbSrc, Model: serve.ModelSpec{Name: "no-such-model"}})
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body))))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", rec.Code, rec.Body.String())
	}
	var env struct {
		Error serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "not_found" {
		t.Errorf("envelope %+v (err %v), want code not_found", env, err)
	}
	for _, b := range gw.backends {
		if st := b.breaker.State(); st != BreakerClosed {
			t.Errorf("breaker %v after a permanent error, want closed", st)
		}
	}
}

// TestGatewayProbesRecoverBackend: the probe loop ejects a dead backend
// and readmits it when it comes back, without any request traffic.
func TestGatewayProbesRecoverBackend(t *testing.T) {
	s := serve.New(serve.Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// A controllable backend: healthy until told otherwise.
	var down sync.Mutex
	isDown := false
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		down.Lock()
		d := isDown
		down.Unlock()
		if d {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	gw, err := NewGateway(GatewayConfig{
		Backends:         []string{hs.URL, flaky.URL},
		ProbeInterval:    20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	flakyName := strings.TrimRight(flaky.URL, "/")

	down.Lock()
	isDown = true
	down.Unlock()
	waitState(t, gw, flakyName, func(s BreakerState) bool { return s != BreakerClosed })

	down.Lock()
	isDown = false
	down.Unlock()
	waitState(t, gw, flakyName, func(s BreakerState) bool { return s == BreakerClosed })
}

func waitState(t *testing.T, gw *Gateway, name string, ok func(BreakerState) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok(gw.backends[name].breaker.State()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s breaker stuck in %v", name, gw.backends[name].breaker.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayBackendsEndpoint: /gw/backends lists every backend with its
// breaker state.
func TestGatewayBackendsEndpoint(t *testing.T) {
	gw, _ := newFleet(t, 2, GatewayConfig{ProbeInterval: time.Hour})
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/gw/backends", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out []BackendStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d backends listed, want 2", len(out))
	}
	for _, b := range out {
		if b.Breaker != "closed" {
			t.Errorf("backend %s breaker %q, want closed", b.Name, b.Breaker)
		}
	}
}

// TestGatewayDecodeMatchesHerdd pins that herd-gw reads a request body
// exactly as herdd does: the same malformed, trailing and oversized
// bodies, posted straight to herdd and through herd-gw, get the same
// status and the same envelope code.
func TestGatewayDecodeMatchesHerdd(t *testing.T) {
	const limit = 2048
	node := serve.New(serve.Config{MaxRequestBytes: limit})
	hs := httptest.NewServer(node.Handler())
	defer hs.Close()
	gw, err := NewGateway(GatewayConfig{Backends: []string{hs.URL}, MaxRequestBytes: limit, Policy: Policy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// The trailing cases carry a valid test, so a decoder that let the
	// trailing data through would answer 200, not 400.
	src, err := json.Marshal(sbVariant(1))
	if err != nil {
		t.Fatal(err)
	}
	run := fmt.Sprintf(`{"litmus":%s,"model":{"name":"tso"}}`, src)
	batch := fmt.Sprintf(`{"tests":[%s],"model":{"name":"tso"},"budget":{}}`, src)
	big := strings.Repeat("x", 2*limit)
	bodies := map[string][]string{
		"/v1/run": {
			`{"litmus":`,
			`[1,2]`,
			`{"litmus":5,"model":{"name":"tso"}}`,
			run + ` extra`,
			run + `}`,
			run + `]`,
			run + `{}`,
			fmt.Sprintf(`{"litmus":%q,"model":{"name":"tso"}}`, big),
			run + strings.Repeat(" ", 2*limit),
		},
		"/v1/batch": {
			`{"tests":[`,
			`[1,2]`,
			`{"tests":"x","model":{"name":"tso"}}`,
			batch + ` extra`,
			batch + `}`,
			batch + `]`,
			batch + `{}`,
			fmt.Sprintf(`{"tests":[%q],"model":{"name":"tso"},"budget":{}}`, big),
			batch + strings.Repeat("\n", 2*limit),
		},
	}
	answer := func(h http.Handler, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %.40q: answer is not an envelope: %s", path, body, rec.Body)
		}
		return rec.Code, env.Error.Code
	}
	for path, list := range bodies {
		for _, body := range list {
			ds, dc := answer(node.Handler(), path, body)
			gs, gc := answer(gw.Handler(), path, body)
			if ds != gs || dc != gc {
				t.Errorf("%s %.60q: herdd answers %d %s, herd-gw %d %s", path, body, ds, dc, gs, gc)
			}
			if ds < 400 || ds >= 500 {
				t.Errorf("%s %.60q: herdd answers %d, want a client error", path, body, ds)
			}
		}
	}
}
