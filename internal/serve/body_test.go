package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/models"
	"herdcats/internal/sim"
	"herdcats/internal/wire"
)

// TestStoredBodyMatchesEncoder: for every catalogue verdict under power,
// a streamed hit keeps a body with the verdict, and it is the one the
// encoder writes for the row — the StoredResult a warm row appends
// encodes to the bytes of NewResult for the row the buffered batch
// reports. A verdict only ever simulated or served unstreamed keeps none.
func TestStoredBodyMatchesEncoder(t *testing.T) {
	s := New(Config{Workers: 2})
	var tests []string
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Source)
	}
	req := BatchRequest{Tests: tests, Model: ModelSpec{Name: "power"}}
	rec, body := postJSON(t, s.Handler(), "/v1/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, body)
	}
	checkBodies := func(want bool) {
		t.Helper()
		for i, src := range tests {
			v, ok := s.cache.LookupVerdict(s.rowRequest(t, src, req))
			if !ok || (v.Body != nil) != want {
				t.Fatalf("row %d: resident %v with body %q, want a body: %v", i, ok, v.Body, want)
			}
		}
	}
	checkBodies(false)
	if rec, _ := postJSON(t, s.Handler(), "/v1/batch", req); rec.Code != http.StatusOK {
		t.Fatalf("warm buffered batch: status %d", rec.Code)
	}
	checkBodies(false)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(data))
	hr.Header.Set("Accept", wire.ContentTypeNDJSON)
	s.Handler().ServeHTTP(httptest.NewRecorder(), hr)
	checkBodies(true)

	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, src := range tests {
		row := resp.Report.Jobs[i]
		mreq := s.rowRequest(t, src, req)
		v, _ := s.cache.LookupVerdict(mreq)
		var want, got bytes.Buffer
		if err := wire.NewEncoder(&want).Encode(wire.NewResult(i, mreq.Key, true, row)); err != nil {
			t.Fatal(err)
		}
		stored := &wire.StoredResult{Index: i, Key: mreq.Key, Cached: true, Body: v.Body, Attempts: row.Attempts, ElapsedMS: row.ElapsedMS}
		if err := wire.NewEncoder(&got).Encode(stored); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("row %d (%s): stored body writes\n %s\nthe encoder writes\n %s", i, row.Name, got.Bytes(), want.Bytes())
		}
	}
}

// rowRequest is the verdict request of one source of req.
func (s *Server) rowRequest(t *testing.T, src string, req BatchRequest) memo.Request {
	t.Helper()
	checker, err := cat.Builtin(req.Model.Name)
	if err != nil {
		t.Fatal(err)
	}
	b := s.budget(req.Budget)
	keys, _, err := s.cache.Resolve(src, memo.NewScope(memo.ModelID(checker), b))
	if err != nil {
		t.Fatal(err)
	}
	return memo.Request{Key: keys.Key, CompleteKey: keys.CompleteKey, Model: checker, Budget: b}
}

// TestStoredBodyIsKeyed pins what makes a stored body a function of its
// verdict key, which every later hit on the key is answered with: the
// body's inputs beside the outcome are the test's name and the model's
// name, and the key covers both. The canonical test a key hashes
// renders the name, and a model identity determines its checker's name.
func TestStoredBodyIsKeyed(t *testing.T) {
	for _, e := range catalog.Tests() {
		test, err := litmus.Parse(e.Source)
		if err != nil {
			t.Fatal(err)
		}
		canon := memo.CanonicalTest(test)
		again, err := litmus.Parse(canon)
		if err != nil {
			t.Fatalf("%s: canonical test does not parse: %v", e.Name, err)
		}
		if again.Name != test.Name {
			t.Errorf("%s: canonical test names %q, want %q", e.Name, again.Name, test.Name)
		}
	}

	// Cat models: the identity is the source's digest, and the name is
	// declared in the source. The zoo's checkers are identified by name.
	names := map[string]string{}
	note := func(m sim.Checker) {
		id := memo.ModelID(m)
		if prev, ok := names[id]; ok && prev != m.Name() {
			t.Errorf("model identity %s names both %q and %q", id, prev, m.Name())
		}
		names[id] = m.Name()
	}
	for _, n := range cat.BuiltinNames() {
		m, err := cat.Builtin(n)
		if err != nil {
			t.Fatal(err)
		}
		note(m)
	}
	for _, m := range []sim.Checker{models.SC, models.TSO, models.Power, models.ARM} {
		note(m)
	}
	const src = "\"inline\"\nacyclic po|rf|fr|co as sc\n"
	for _, s := range []string{src, src, "\"other\"\nacyclic po|rf|fr|co as sc\n", "acyclic po|rf|fr|co as sc\n"} {
		m, err := cat.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		note(m)
	}
}
