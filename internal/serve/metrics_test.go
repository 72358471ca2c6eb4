package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"herdcats/internal/obs"
)

func getMetrics(t *testing.T, h http.Handler) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

// parseExposition splits a Prometheus text page into sample name→value,
// failing the test on any malformed line (obs.ParseExposition behind a
// test helper).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsEndpointGolden drives one simulation through /v1/run and then
// checks the /metrics page against the golden shape: the content type, the
// TYPE headers, the fixed family set, and the invariants the counters must
// satisfy after exactly one uncached run.
func TestMetricsEndpointGolden(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	rec, body := postJSON(t, h, "/v1/run", RunRequest{Litmus: sbSrc, Model: ModelSpec{Name: "tso"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", rec.Code, body)
	}

	mrec, page := getMetrics(t, h)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", mrec.Code)
	}
	if ct := mrec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}

	// Golden TYPE headers: every family the server registers, with its
	// kind. Extra families are allowed (the registry is extensible), but
	// these must all be present and correctly typed.
	goldenTypes := map[string]string{
		"herdd_admission_queue_depth":    "gauge",
		"herdd_admission_shed_total":     "counter",
		"herdd_admission_slots_in_use":   "gauge",
		"herdd_admission_wait_us":        "histogram",
		"herdd_cache_alias_hits_total":   "counter",
		"herdd_cache_alias_misses_total": "counter",
		"herdd_cache_entries":            "gauge",
		"herdd_cache_evictions_total":    "counter",
		"herdd_cache_hits_total":         "counter",
		"herdd_cache_misses_total":       "counter",
		"herdd_cache_waits_total":        "counter",
		"herdd_enum_candidates_total":    "counter",
		"herdd_enum_shards_built_total":  "counter",
		"herdd_enum_shards_run_total":    "counter",
		"herdd_enum_workers":             "gauge",
		"herdd_http_in_flight":           "gauge",
		"herdd_request_latency_us":       "histogram",
		"herdd_requests_total":           "counter",
	}
	seenTypes := make(map[string]string)
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed TYPE line %q", line)
		}
		if prev, dup := seenTypes[f[2]]; dup {
			t.Errorf("duplicate TYPE for %s (%s then %s)", f[2], prev, f[3])
		}
		seenTypes[f[2]] = f[3]
	}
	var missing []string
	for name, kind := range goldenTypes {
		if got, ok := seenTypes[name]; !ok {
			missing = append(missing, name)
		} else if got != kind {
			t.Errorf("%s typed %s, want %s", name, got, kind)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("families missing from /metrics: %v\npage:\n%s", missing, page)
	}

	// Value invariants after one uncached run.
	samples := parseExposition(t, page)
	// The shed counters are pre-registered per reason, so dashboards see
	// every series at 0 before the first overload.
	for _, reason := range []string{"queue_full", "queue_wait", "deadline"} {
		name := `herdd_admission_shed_total{reason="` + reason + `"}`
		if v, ok := samples[name]; !ok || v != 0 {
			t.Errorf("%s = %v (present=%v), want 0 on an idle server", name, v, ok)
		}
	}
	if v := samples[`herdd_requests_total{route="/v1/run"}`]; v != 1 {
		t.Errorf("run requests = %v, want 1", v)
	}
	if v := samples["herdd_cache_misses_total"]; v != 1 {
		t.Errorf("cache misses = %v, want 1", v)
	}
	if v := samples["herdd_cache_entries"]; v != 1 {
		t.Errorf("cache entries = %v, want 1", v)
	}
	if h, m := samples["herdd_cache_alias_hits_total"], samples["herdd_cache_alias_misses_total"]; h != 0 || m != 1 {
		t.Errorf("alias hits/misses = %v/%v, want 0/1", h, m)
	}
	// sb has 4 stores/loads → dozens of candidates; the exact count is the
	// engine's business, but zero would mean the enum counters never wired.
	if v := samples["herdd_enum_candidates_total"]; v == 0 {
		t.Error("enum candidates counter never incremented")
	}
	// Histogram integrity: count ≥ 1 and the +Inf bucket equals the count.
	count := samples[`herdd_request_latency_us_bucket{route="/v1/run",le="+Inf"}`]
	if count < 1 {
		t.Errorf("latency +Inf bucket = %v, want >= 1", count)
	}
	if c := samples[`herdd_request_latency_us_count{route="/v1/run"}`]; c != count {
		t.Errorf("latency _count %v != +Inf bucket %v", c, count)
	}

	// A second, cached, run moves the hit counter and the route counter
	// but not the miss counter.
	rec2, body2 := postJSON(t, h, "/v1/run", RunRequest{Litmus: sbSrc, Model: ModelSpec{Name: "tso"}})
	if rec2.Code != http.StatusOK {
		t.Fatalf("cached run: status %d: %s", rec2.Code, body2)
	}
	_, page2 := getMetrics(t, h)
	samples2 := parseExposition(t, page2)
	if v := samples2[`herdd_requests_total{route="/v1/run"}`]; v != 2 {
		t.Errorf("run requests after cached hit = %v, want 2", v)
	}
	if v := samples2["herdd_cache_hits_total"]; v != 1 {
		t.Errorf("cache hits = %v, want 1", v)
	}
	if v := samples2["herdd_cache_misses_total"]; v != 1 {
		t.Errorf("cache misses after cached hit = %v, want 1", v)
	}
	// The repeat's bytes hit the raw-bytes alias: no second parse.
	if h, m := samples2["herdd_cache_alias_hits_total"], samples2["herdd_cache_alias_misses_total"]; h != 1 || m != 1 {
		t.Errorf("alias hits/misses after cached hit = %v/%v, want 1/1", h, m)
	}
}

// TestMetricsErrorCounter: a 4xx response increments the per-route error
// counter alongside the request counter.
func TestMetricsErrorCounter(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rec, _ := postJSON(t, h, "/v1/run", RunRequest{Litmus: "not litmus", Model: ModelSpec{Name: "tso"}})
	if rec.Code == http.StatusOK {
		t.Fatal("malformed litmus should not return 200")
	}
	_, page := getMetrics(t, h)
	samples := parseExposition(t, page)
	if v := samples[`herdd_request_errors_total{route="/v1/run"}`]; v != 1 {
		t.Errorf("error counter = %v, want 1", v)
	}
}

// TestMetricsRouteBounding: unknown paths land in the "other" route label;
// probing random paths must not mint new series.
func TestMetricsRouteBounding(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/no/such/path/%d", i), nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	_, page := getMetrics(t, h)
	samples := parseExposition(t, page)
	if v := samples[`herdd_requests_total{route="other"}`]; v != 5 {
		t.Errorf(`requests{route="other"} = %v, want 5`, v)
	}
	for name := range samples {
		if strings.Contains(name, "no/such/path") {
			t.Errorf("unbounded route label minted series %s", name)
		}
	}
}

// TestErrorEnvelopeEverywhere: routing misses answer with the same JSON
// envelope as handler errors — a 404 for unknown paths, a 405 for known
// paths under the wrong method — never the mux's plain-text page.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	cases := []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodGet, "/no/such/path", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/run", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/metrics", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, rec.Code, c.status)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s %s: body is not the envelope: %v\n%s", c.method, c.path, err, rec.Body.String())
			continue
		}
		if e.Error.Code != c.code || e.Error.Message == "" {
			t.Errorf("%s %s: envelope %+v, want code %q", c.method, c.path, e.Error, c.code)
		}
	}
}

// TestPprofEndpoint: the pprof index is mounted and serves.
func TestPprofEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("pprof index should list profiles")
	}
}
