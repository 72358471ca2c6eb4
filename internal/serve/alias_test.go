package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/wire"
)

// sbNamed is the store-buffering test under a distinct name, so each
// seed is a distinct verdict key.
func sbNamed(seed int) string {
	return strings.Replace(sbSrc, "X86 sb", fmt.Sprintf("X86 sb%04d", seed), 1)
}

// sbReformatted is sbSrc with a comment and different whitespace: byte-
// different, canonically equal.
const sbReformatted = `X86 sb   (* store buffering, reformatted *)
{
}
 P0          | P1 ;
 MOV [x],$1  | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`

// aliasCall is one request of the alias differential's script.
type aliasCall struct {
	path   string
	stream bool
	body   any
}

// do sends the call and returns its status and its body with the fields
// that legitimately differ between a cold and a warm answer removed
// (normalise).
func (c aliasCall) do(t *testing.T, h http.Handler) (int, string) {
	t.Helper()
	data, err := json.Marshal(c.body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(data))
	if c.stream {
		r.Header.Set("Accept", wire.ContentTypeNDJSON)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	var out strings.Builder
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: decoding response: %v", c.path, err)
		}
		norm, err := json.Marshal(normalise(v))
		if err != nil {
			t.Fatal(err)
		}
		out.Write(norm)
		out.WriteByte('\n')
	}
	return rec.Code, out.String()
}

// normalise drops, at any depth, the fields that say how an answer was
// obtained rather than what it is: whether it came from the cache, how
// long it took, and the phase trace and counters of work that only a
// miss performs.
func normalise(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range []string{"cached", "cache_hits", "elapsed_ms", "trace", "phase_totals_us", "enum"} {
			delete(x, k)
		}
		for k, e := range x {
			x[k] = normalise(e)
		}
	case []any:
		for i, e := range x {
			x[i] = normalise(e)
		}
	}
	return v
}

// TestAliasNeverChangesAnAnswer is the raw-bytes alias differential: one
// script of requests — valid rows (one a reformatted duplicate), a
// parse-failing row, bad models, budgets the server clamps to
// MaxSimTimeout and a deterministic candidate bound — sent to one server
// with the alias cold and again with it warm must answer each request
// byte-identically, apart from the cached and elapsed fields, to a fresh
// server that sees only that request.
func TestAliasNeverChangesAnAnswer(t *testing.T) {
	cfg := Config{MaxSimTimeout: 30 * time.Second, Workers: 2}
	rows := []string{
		catalogSource(t, "mp"),
		"this is not a litmus test",
		sbSrc,
		sbReformatted,
		catalogSource(t, "lb"),
	}
	tso := ModelSpec{Name: "tso"}
	power := ModelSpec{Name: "power"}
	bad := ModelSpec{Name: "no-such-model"}
	clamped := BudgetSpec{TimeoutMS: 60_000}
	script := []aliasCall{
		{"/v1/batch", true, BatchRequest{Tests: rows, Model: power, Ordered: true}},
		{"/v1/batch", false, BatchRequest{Tests: rows, Model: tso, Budget: clamped}},
		{"/v1/batch", true, BatchRequest{Tests: rows, Model: power, Budget: BudgetSpec{MaxCandidates: 2}, Ordered: true}},
		{"/v1/batch", false, BatchRequest{Tests: rows, Model: bad}},
		{"/v1/run", false, RunRequest{Litmus: sbReformatted, Model: tso, Budget: clamped}},
		{"/v1/run", false, RunRequest{Litmus: rows[0], Model: power}},
		{"/v1/run", false, RunRequest{Litmus: rows[1], Model: power}},
		{"/v1/run", false, RunRequest{Litmus: sbSrc, Model: bad}},
		{"/v1/run", false, RunRequest{Litmus: rows[1], Model: bad}}, // bad test reported before bad model
		{"/v1/run", false, RunRequest{Litmus: sbSrc, Model: ModelSpec{Cat: "let ("}}},
	}
	run := func(h http.Handler) []string {
		var got []string
		for _, c := range script {
			code, body := c.do(t, h)
			got = append(got, fmt.Sprintf("%d %s", code, body))
		}
		return got
	}

	s := New(cfg)
	cold := run(s.Handler())
	st0 := s.Cache().Stats()
	warm := run(s.Handler())
	st1 := s.Cache().Stats()
	for i, c := range script {
		code, body := c.do(t, New(cfg).Handler())
		fresh := fmt.Sprintf("%d %s", code, body)
		if cold[i] != fresh {
			t.Errorf("call %d (%s): alias-cold answer differs from a fresh server's\nfresh: %s\ncold:  %s", i, c.path, fresh, cold[i])
		}
		if warm[i] != fresh {
			t.Errorf("call %d (%s): alias-warm answer differs from a fresh server's\nfresh: %s\nwarm:  %s", i, c.path, fresh, warm[i])
		}
	}
	if !strings.Contains(cold[8], "litmus:") {
		t.Errorf("bad test under a bad model: %s, want the litmus error", cold[8])
	}

	// The warm pass parsed only what never parses: the bad row of each
	// good-model batch and the one /v1/run of it under a good model.
	if d := st1.AliasMisses - st0.AliasMisses; d != 4 {
		t.Errorf("warm pass: %d alias misses, want 4 (the parse failures)", d)
	}
	if st1.AliasHits == st0.AliasHits {
		t.Error("warm pass never hit the alias")
	}
	if st1.Misses != st0.Misses {
		t.Errorf("warm pass simulated %d times, want 0", st1.Misses-st0.Misses)
	}
}

// TestAliasBounded: the alias layer is bounded by CacheEntries like the
// other layers, and a source whose alias was evicted resolves to the
// same key again.
func TestAliasBounded(t *testing.T) {
	const entries = 16
	s := New(Config{CacheEntries: entries})
	h := s.Handler()
	var first []string
	for base := 0; base < entries+100; base += 29 {
		var tests []string
		for i := base; i < min(base+29, entries+100); i++ {
			tests = append(tests, sbNamed(i))
		}
		rec, body := postJSON(t, h, "/v1/batch", BatchRequest{Tests: tests, Model: ModelSpec{Name: "tso"}})
		if rec.Code != http.StatusOK {
			t.Fatalf("batch at %d: status %d: %s", base, rec.Code, body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = resp.Keys
		}
	}
	st := s.Cache().Stats()
	if st.Aliases > entries {
		t.Errorf("%d aliases resident after %d distinct tests, bound %d", st.Aliases, entries+100, entries)
	}
	if st.AliasMisses != entries+100 {
		t.Errorf("%d alias misses for %d distinct tests", st.AliasMisses, entries+100)
	}

	rec, body := postJSON(t, h, "/v1/batch", BatchRequest{Tests: []string{sbNamed(0)}, Model: ModelSpec{Name: "tso"}})
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("re-send: status %d: %s", rec.Code, body)
	}
	if resp.Keys[0] != first[0] {
		t.Errorf("evicted alias resolved to key %s, first %s", resp.Keys[0], first[0])
	}
	if got := s.Cache().Stats().AliasMisses; got != entries+101 {
		t.Errorf("re-send of an evicted source: %d alias misses, want %d", got, entries+101)
	}
}

// TestWarmBatchAllocsCeiling is the CI bench-smoke guard on what a warm
// batch row costs the allocator: with every row's alias and verdict
// resident, building the batch plan and answering each row's job (the
// alias lookup, the verdict Lookup, no parse) must allocate no more per
// row than measured once the alias digest stopped rendering the budget
// and copying the source per row (go1.24: 3.2; 6.1 before that, 100 when
// every row was parsed and canonicalised). Gated on BENCH_ENUM_OUT like
// the other bench asserts.
func TestWarmBatchAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the warm batch allocation ceiling check")
	}
	s := New(Config{MaxSimTimeout: 30 * time.Second})
	req := BatchRequest{Model: ModelSpec{Name: "power"}}
	for i := 0; i < 64; i++ {
		req.Tests = append(req.Tests, sbNamed(i))
	}
	if rec, body := postJSON(t, s.Handler(), "/v1/batch", req); rec.Code != http.StatusOK {
		t.Fatalf("prefill: status %d: %s", rec.Code, body)
	}
	checker, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	b := s.budget(req.Budget)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		p := s.buildBatch(&req, checker, b, "", false)
		for i, job := range p.jobs {
			if _, err := job.Run(ctx, b); err != nil || !p.cached[i] {
				t.Fatalf("row %d: cached=%v err=%v, want a warm hit", i, p.cached[i], err)
			}
		}
	}) / float64(len(req.Tests))
	t.Logf("warm batch row: %.1f allocs per row", allocs)
	const ceiling = 4
	if allocs > ceiling {
		t.Errorf("warm batch row: %.1f allocs, ceiling %d — rows are being parsed again", allocs, ceiling)
	}
}
