package mine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// TestMineMetricsGolden runs a small campaign and checks the daemon's
// /metrics page against the golden shape: content type, the mine_* TYPE
// headers, the per-pair series (pre-registered at zero), and the counter
// invariants a clean campaign must satisfy. /healthz answers like serve's.
func TestMineMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(filepath.Join(t.TempDir(), "corpus.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pairs := cheapPairs()
	m, err := New(Config{
		Arch:          litmus.PPC,
		ExhaustiveMax: 3,
		MaxTests:      10,
		Workers:       2,
		Pairs:         pairs,
		Store:         store,
		Reg:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	h := m.Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	page := rec.Body.String()

	goldenTypes := map[string]string{
		"mine_agreements_total":         "counter",
		"mine_corpus_size":              "gauge",
		"mine_decider_errors_total":     "counter",
		"mine_disagreements_total":      "counter",
		"mine_generate_rejects_total":   "counter",
		"mine_minimize_steps_total":     "counter",
		"mine_pair_checked_total":       "counter",
		"mine_pair_disagreements_total": "counter",
		"mine_pairs_checked_total":      "counter",
		"mine_resume_hits_total":        "counter",
		"mine_tests_total":              "counter",
		"mine_witnesses_total":          "counter",
		"mine_workers":                  "gauge",
	}
	seenTypes := map[string]string{}
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
	for name, kind := range goldenTypes {
		if got, ok := seenTypes[name]; !ok {
			t.Errorf("family %s missing from /metrics\npage:\n%s", name, page)
		} else if got != kind {
			t.Errorf("%s typed %s, want %s", name, got, kind)
		}
	}

	samples, err := obs.ParseExposition(page)
	if err != nil {
		t.Fatal(err)
	}
	if v := samples["mine_tests_total"]; v != 10 {
		t.Errorf("mine_tests_total = %v, want 10", v)
	}
	if v := samples["mine_corpus_size"]; v != 10 {
		t.Errorf("mine_corpus_size = %v, want 10", v)
	}
	if v := samples["mine_pairs_checked_total"]; v != float64(10*len(pairs)) {
		t.Errorf("mine_pairs_checked_total = %v, want %d", v, 10*len(pairs))
	}
	if samples["mine_agreements_total"] != samples["mine_pairs_checked_total"] {
		t.Errorf("clean campaign: agreements %v != pairs checked %v",
			samples["mine_agreements_total"], samples["mine_pairs_checked_total"])
	}
	if v := samples["mine_disagreements_total"]; v != 0 {
		t.Errorf("mine_disagreements_total = %v, want 0", v)
	}
	if v := samples["mine_workers"]; v != 2 {
		t.Errorf("mine_workers = %v, want 2", v)
	}
	// Per-pair series: every pair pre-registered, checked counts summing to
	// the total, disagreement series present at 0.
	var perPair float64
	for _, p := range pairs {
		checked := `mine_pair_checked_total{pair="` + labelValue(p.String()) + `"}`
		v, ok := samples[checked]
		if !ok {
			t.Errorf("series %s missing", checked)
		}
		perPair += v
		dis := `mine_pair_disagreements_total{pair="` + labelValue(p.String()) + `"}`
		if v, ok := samples[dis]; !ok || v != 0 {
			t.Errorf("%s = %v (present=%v), want 0", dis, v, ok)
		}
	}
	if perPair != samples["mine_pairs_checked_total"] {
		t.Errorf("per-pair checked sums to %v, total says %v", perPair, samples["mine_pairs_checked_total"])
	}

	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || hrec.Body.String() != "ok\n" {
		t.Errorf("/healthz: status %d body %q, want 200 %q", hrec.Code, hrec.Body.String(), "ok\n")
	}
}
