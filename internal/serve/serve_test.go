package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/catalog"
	"herdcats/internal/wire"
)

const sbSrc = `X86 sb
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`

func catalogSource(t testing.TB, name string) string {
	t.Helper()
	e, ok := catalog.ByName(name)
	if !ok {
		t.Fatalf("catalogue has no test %q", name)
	}
	return e.Source
}

func postJSON(t testing.TB, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestRunEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	req := RunRequest{Litmus: sbSrc, Model: ModelSpec{Name: "tso"}}
	rec, body := postJSON(t, h, "/v1/run", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "Allowed" {
		t.Fatalf("sb under TSO should be Allowed, got %q", resp.Verdict)
	}
	if resp.Cached || resp.Key == "" || resp.Outcome.Candidates == 0 {
		t.Fatalf("first response malformed: %+v", resp)
	}

	// The identical request — even reformatted — is a cache hit with the
	// same key and byte-identical outcome encoding.
	rec2, body2 := postJSON(t, h, "/v1/run", RunRequest{
		Litmus: strings.ReplaceAll(sbSrc, " | ", "   |   "),
		Model:  ModelSpec{Name: "tso"},
	})
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec2.Code, body2)
	}
	var resp2 RunResponse
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.Key != resp.Key {
		t.Fatalf("reformatted duplicate not served from cache: %+v", resp2)
	}
	out1, _ := json.Marshal(resp.Outcome)
	out2, _ := json.Marshal(resp2.Outcome)
	if !bytes.Equal(out1, out2) {
		t.Fatalf("outcome encodings differ:\n%s\nvs\n%s", out1, out2)
	}
	if st := s.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want one miss then one hit", st)
	}
}

func TestRunInlineCatModel(t *testing.T) {
	s := New(Config{})
	src := `sc-inline
let com = rf | co | fr
acyclic po | com as sc`
	rec, body := postJSON(t, s.Handler(), "/v1/run", RunRequest{
		Litmus: sbSrc, Model: ModelSpec{Cat: src},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "Forbidden" {
		t.Fatalf("sb under SC should be Forbidden, got %q", resp.Verdict)
	}
	// Same inline source again: model compiled once.
	postJSON(t, s.Handler(), "/v1/run", RunRequest{Litmus: sbSrc, Model: ModelSpec{Cat: src}})
	if st := s.Cache().Stats(); st.ModelMisses != 1 || st.ModelHits != 1 {
		t.Fatalf("model cache stats = %+v", st)
	}
}

// TestRunDeduplicatesConcurrentRequests is the acceptance test: N
// concurrent identical /v1/run requests perform exactly one simulation
// (the singleflight/miss counter stays at 1) while the other N-1 are
// served as cache hits or in-flight joins.
func TestRunDeduplicatesConcurrentRequests(t *testing.T) {
	const n = 16
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(RunRequest{
		Litmus: catalogSource(t, "mp"),
		Model:  ModelSpec{Name: "power"},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	keys := make([]string, n)
	cached := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var rr RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				errs[i] = err
				return
			}
			keys[i] = rr.Key
			cached[i] = rr.Cached
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	st := s.Cache().Stats()
	if st.Misses != 1 {
		t.Fatalf("singleflight counter: %d simulations for %d identical requests (stats %+v)",
			st.Misses, n, st)
	}
	if st.Hits+st.Waits != n-1 {
		t.Fatalf("hits(%d)+waits(%d) != %d (stats %+v)", st.Hits, st.Waits, n-1, st)
	}
	fresh := 0
	for i := range keys {
		if keys[i] != keys[0] {
			t.Fatalf("request %d got key %q, others %q", i, keys[i], keys[0])
		}
		if !cached[i] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d responses claim to have simulated, want exactly 1", fresh)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := New(Config{Workers: 4})
	req := BatchRequest{
		Tests: []string{
			catalogSource(t, "mp"),
			"this is not a litmus test",
			catalogSource(t, "mp"), // duplicate: must be deduplicated
			catalogSource(t, "sb"),
		},
		Model: ModelSpec{Name: "power"},
	}
	rec, body := postJSON(t, s.Handler(), "/v1/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Report.Jobs) != 4 || len(resp.Cached) != 4 || len(resp.Keys) != 4 {
		t.Fatalf("response shape: %+v", resp)
	}
	if resp.Report.Jobs[1].Status != campaign.StatusError {
		t.Fatalf("bad source reported %s, want Error", resp.Report.Jobs[1].Status)
	}
	if resp.Keys[0] != resp.Keys[2] || resp.Keys[0] == resp.Keys[3] {
		t.Fatalf("keys: %v", resp.Keys)
	}
	// The duplicate pair cost one simulation between them.
	st := s.Cache().Stats()
	if st.Misses != 2 { // mp once, sb once
		t.Fatalf("batch stats = %+v, want 2 simulations", st)
	}
	if resp.Cached[0] == resp.Cached[2] {
		t.Fatalf("duplicate pair should have one fresh and one deduplicated run: %v", resp.Cached)
	}
}

// TestBatchLimits: one test over wire.MaxBatchTests is refused whole,
// before anything simulates.
func TestBatchLimits(t *testing.T) {
	s := New(Config{})
	tests := make([]string, wire.MaxBatchTests+1)
	for i := range tests {
		tests[i] = sbSrc
	}
	req := BatchRequest{Tests: tests, Model: ModelSpec{Name: "tso"}}
	rec, body := postJSON(t, s.Handler(), "/v1/batch", req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if st := s.Cache().Stats(); st.Misses != 0 {
		t.Errorf("an oversized batch simulated %d tests, want 0", st.Misses)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	s := New(Config{MaxRequestBytes: 128})
	big := RunRequest{Litmus: sbSrc + strings.Repeat("\n(* pad *)", 100), Model: ModelSpec{Name: "tso"}}
	rec, body := postJSON(t, s.Handler(), "/v1/run", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty", ``, http.StatusBadRequest},
		{"not json", `{{{`, http.StatusBadRequest},
		{"trailing garbage", `{"litmus":"x"} extra`, http.StatusBadRequest},
		{"trailing brace", `{"litmus":"x","model":{"name":"tso"}}}`, http.StatusBadRequest},
		{"trailing bracket", `{"litmus":"x","model":{"name":"tso"}}]`, http.StatusBadRequest},
		{"missing litmus", `{"model":{"name":"tso"}}`, http.StatusBadRequest},
		{"no model", fmt.Sprintf(`{"litmus":%q}`, sbSrc), http.StatusBadRequest},
		{"both models", fmt.Sprintf(`{"litmus":%q,"model":{"name":"tso","cat":"x"}}`, sbSrc), http.StatusBadRequest},
		{"negative budget", fmt.Sprintf(`{"litmus":%q,"model":{"name":"tso"},"budget":{"max_candidates":-1}}`, sbSrc), http.StatusBadRequest},
		{"unknown model", fmt.Sprintf(`{"litmus":%q,"model":{"name":"nope"}}`, sbSrc), http.StatusNotFound},
		{"bad litmus", `{"litmus":"gibberish","model":{"name":"tso"}}`, http.StatusBadRequest},
		{"bad cat", fmt.Sprintf(`{"litmus":%q,"model":{"cat":"let ("}}`, sbSrc), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, c.status, rec.Body)
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil ||
				e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("error body not a JSON envelope: %s", rec.Body)
			}
		})
	}
}

// TestBadBatchBodies pins /v1/batch's body decoding: anything after the
// request object, a closing brace or bracket included, is a 400; a body
// over the limit is a 413.
func TestBadBatchBodies(t *testing.T) {
	s := New(Config{MaxRequestBytes: 1024})
	h := s.Handler()
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"trailing brace", `{"tests":["x"],"model":{"name":"power"}}}`, http.StatusBadRequest},
		{"trailing bracket", `{"tests":["x"],"model":{"name":"power"}}]`, http.StatusBadRequest},
		{"trailing object", `{"tests":["x"],"model":{"name":"power"},"budget":{}} {}`, http.StatusBadRequest},
		{"not json", `{"tests":[`, http.StatusBadRequest},
		{"too large", fmt.Sprintf(`{"tests":[%q],"model":{"name":"power"},"budget":{}}`, strings.Repeat("x", 2048)), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, c.status, rec.Body)
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != wire.ErrorCode(c.status) {
				t.Fatalf("error body not a %s envelope: %s", wire.ErrorCode(c.status), rec.Body)
			}
		})
	}
}

func TestModelsAndHealthz(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("models status %d", rec.Code)
	}
	var infos []ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range infos {
		if m.Name == "power" && len(m.Fingerprint) == 64 {
			found = true
		}
	}
	if !found {
		t.Fatalf("power model missing from %v", infos)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/run", RunRequest{Litmus: sbSrc, Model: ModelSpec{Name: "tso"}})

	req := httptest.NewRequest(http.MethodGet, "/debug/vars", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var vars struct {
		Cache struct {
			Misses uint64 `json:"misses"`
		} `json:"herdd_cache"`
		HTTP HTTPStats `json:"herdd_http"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("expvar payload not JSON: %v\n%s", err, rec.Body)
	}
	if vars.Cache.Misses != 1 {
		t.Fatalf("herdd_cache.misses = %d, want 1", vars.Cache.Misses)
	}
	if vars.HTTP.Requests < 1 {
		t.Fatalf("herdd_http.requests = %d", vars.HTTP.Requests)
	}
}

// TestGracefulShutdown: Shutdown drains an in-flight request before
// returning, and the listener stops accepting new work.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	body, _ := json.Marshal(RunRequest{Litmus: catalogSource(t, "mp"), Model: ModelSpec{Name: "power"}})
	respc := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		respc <- err
	}()
	// Give the request a moment to be accepted, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-respc; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
