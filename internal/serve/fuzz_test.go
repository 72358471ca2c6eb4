package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"
	"time"
)

// seedRequests is the fuzz seed corpus: valid requests, near-valid
// requests, and the malformed shapes clients actually send.
var seedRequests = []string{
	fmt.Sprintf(`{"litmus":%q,"model":{"name":"tso"}}`, sbSrc),
	fmt.Sprintf(`{"litmus":%q,"model":{"name":"power"},"budget":{"max_candidates":10,"timeout_ms":50}}`, sbSrc),
	fmt.Sprintf(`{"litmus":%q,"model":{"cat":"m\nacyclic po as c"}}`, sbSrc),
	`{}`,
	`{"litmus":""}`,
	`{"litmus":"x","model":{}}`,
	`{"litmus":"x","model":{"name":"tso","cat":"y"}}`,
	`{"litmus":"x","model":{"name":"tso"},"budget":{"max_candidates":-1}}`,
	`{"litmus":"x","model":{"name":"tso"},"budget":{"timeout_ms":99999999999999999999}}`,
	`{"litmus":123,"model":{"name":"tso"}}`,
	`{"litmus":"x","model":"tso"}`,
	`[1,2,3]`,
	`null`,
	`"just a string"`,
	`{"litmus":"x","model":{"name":"tso"}} trailing`,
	`{"litmus":"x","model":{"name":"tso"}}}`,
	`{"litmus":"x","model":{"name":"tso"}}]`,
	`{"litmus":"x","model":{"name":"tso"`,
	"\x00\xff\xfe",
	``,
}

// fuzzServer builds a server with tight limits so fuzz inputs that happen
// to be simulable stay cheap.
func fuzzServer() *Server {
	return New(Config{
		MaxSimTimeout:   50 * time.Millisecond,
		MaxRequestBytes: 1 << 16,
	})
}

// post drives one body through the full /v1/run handler, reporting a panic
// instead of crashing the process.
func post(h http.Handler, body []byte) (status int, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, false
}

// FuzzRunRequestDecoder: the /v1/run decoder and handler must answer every
// body — valid, malformed, or hostile — with a status, never a panic, and
// never blame the server (5xx) for client data.
func FuzzRunRequestDecoder(f *testing.F) {
	for _, s := range seedRequests {
		f.Add([]byte(s))
	}
	s := fuzzServer()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		status, panicked := post(h, data)
		if panicked {
			t.Fatalf("handler panicked on body:\n%s", data)
		}
		if status >= 500 {
			t.Fatalf("handler answered %d on body:\n%s", status, data)
		}
	})
}

// TestRunDecoderNeverPanics mirrors internal/litmus/fuzz_test.go for the
// HTTP decoder: random byte soups via testing/quick, then seeded
// mutations of every corpus request.
func TestRunDecoderNeverPanics(t *testing.T) {
	s := fuzzServer()
	h := s.Handler()

	soup := func(data []byte) bool {
		_, panicked := post(h, data)
		return !panicked
	}
	if err := quick.Check(soup, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(17))
	for _, base := range seedRequests {
		if base == "" {
			continue
		}
		for i := 0; i < 60; i++ {
			b := []byte(base)
			for k := 0; k < 1+rng.Intn(5); k++ {
				switch rng.Intn(3) {
				case 0: // flip a byte
					b[rng.Intn(len(b))] = byte(rng.Intn(256))
				case 1: // delete a span
					at := rng.Intn(len(b))
					end := at + rng.Intn(10)
					if end > len(b) {
						end = len(b)
					}
					b = append(b[:at], b[end:]...)
				case 2: // duplicate a span
					at := rng.Intn(len(b))
					end := at + rng.Intn(10)
					if end > len(b) {
						end = len(b)
					}
					b = append(b[:end], b[at:]...)
				}
				if len(b) == 0 {
					b = []byte("{")
				}
			}
			if status, panicked := post(h, b); panicked || status >= 500 {
				t.Fatalf("handler panicked=%v status=%d on mutated body:\n%s", panicked, status, b)
			}
		}
	}
}
