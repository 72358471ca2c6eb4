package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"herdcats/internal/campaign"
	"herdcats/internal/catalog"
	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// recordingBackend is a herdd that keeps every /v1/batch body it is sent.
type recordingBackend struct {
	h      http.Handler
	mu     sync.Mutex
	bodies [][]byte
}

func (rb *recordingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/batch" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rb.mu.Lock()
		rb.bodies = append(rb.bodies, body)
		rb.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rb.h.ServeHTTP(w, r)
}

// literalVariants spells src's JSON literal seven ways, each decoding to
// a litmus test that parses (the odd characters sit in a comment, or
// are the exists clause's /): as json.Marshal writes it, with a \b, and
// with an escaped /, an upper-case \u003C, a needless \u0041, a raw <
// and a raw U+2028. The first two are exact; the others are not.
func literalVariants(t *testing.T, src string) []string {
	t.Helper()
	lit := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	plain := lit(src)
	if !strings.Contains(plain, "/") {
		t.Fatalf("source has no / to escape: %s", src)
	}
	return []string{
		plain,
		lit(src + "\n(*\b*)"),
		strings.Replace(plain, "/", `\/`, 1),
		strings.Replace(lit(src+"\n(*<*)"), `\u003c`, `\u003C`, 1),
		strings.Replace(lit(src+"\n(*A*)"), `A*)`, `\u0041*)`, 1),
		strings.Replace(lit(src+"\n(*<*)"), `\u003c`, `<`, 1),
		strings.Replace(lit(src+"\n(*\u2028*)"), `\u2028`, "\u2028", 1),
	}
}

// TestGatewaySubBatchBodiesIdentical: whatever shape the client's
// literals arrive in, each sub-batch body herd-gw sends upstream is byte
// for byte what wire.AppendBatchRequest writes for that sub-batch, and
// the sub-batches together carry every test's value once. The gateway
// copies exact literals from the received body and escapes the others
// again; this pins both against the encoder, streamed and buffered, over
// one home and over several.
func TestGatewaySubBatchBodiesIdentical(t *testing.T) {
	var lits []string
	for _, e := range catalog.Tests()[:12] {
		if !strings.Contains(e.Source, "/") {
			continue
		}
		lits = append(lits, literalVariants(t, e.Source)...)
	}
	body := []byte(`{"tests":[` + strings.Join(lits, ",") + `],"model":{"name":"power"},"budget":{"max_candidates":100000},"deadline_ms":60000}`)
	var req wire.BatchRequest
	if err := wire.DecodeBody(bytes.NewReader(body), &req); err != nil {
		t.Fatal(err)
	}
	for _, backends := range []int{1, 3} {
		for _, stream := range []bool{true, false} {
			t.Run(fmt.Sprintf("backends=%d/stream=%v", backends, stream), func(t *testing.T) {
				var cfg GatewayConfig
				recs := make([]*recordingBackend, backends)
				for i := range recs {
					recs[i] = &recordingBackend{h: serve.New(serve.Config{Workers: 2}).Handler()}
					hs := httptest.NewServer(recs[i])
					t.Cleanup(hs.Close)
					cfg.Backends = append(cfg.Backends, hs.URL)
				}
				gw, err := NewGateway(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(gw.Close)
				front := httptest.NewServer(gw.Handler())
				t.Cleanup(front.Close)

				hr, err := http.NewRequest(http.MethodPost, front.URL+"/v1/batch", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if stream {
					hr.Header.Set("Accept", wire.ContentTypeNDJSON)
				}
				resp, err := http.DefaultClient.Do(hr)
				if err != nil {
					t.Fatal(err)
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, %v: %s", resp.StatusCode, err, out)
				}
				verdicts := 0
				if stream {
					dec := wire.NewDecoder(bytes.NewReader(out))
					for {
						f, err := dec.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
						if _, ok := f.(*wire.ResultFrame); ok {
							verdicts++
						}
					}
					dec.Release()
				} else {
					var br wire.BatchResponse
					if err := json.Unmarshal(out, &br); err != nil {
						t.Fatal(err)
					}
					for _, job := range br.Report.Jobs {
						if !job.Failed() && job.Status != campaign.StatusSkipped {
							verdicts++
						}
					}
				}
				if verdicts != len(req.Tests) {
					t.Fatalf("%d verdicts for %d tests: %.400s", verdicts, len(req.Tests), out)
				}

				var sent []string
				homes := 0
				for _, rec := range recs {
					rec.mu.Lock()
					bodies := rec.bodies
					rec.mu.Unlock()
					if len(bodies) > 0 {
						homes++
					}
					for _, got := range bodies {
						var sub wire.BatchRequest
						if err := wire.DecodeBody(bytes.NewReader(got), &sub); err != nil {
							t.Fatalf("upstream body %.200s: %v", got, err)
						}
						if want := wire.AppendBatchRequest(nil, &sub); !bytes.Equal(got, want) {
							t.Fatalf("upstream body\n %s\nAppendBatchRequest writes\n %s", got, want)
						}
						if sub.Model != req.Model || sub.Budget != req.Budget || sub.DeadlineMS != req.DeadlineMS || sub.Ordered {
							t.Fatalf("upstream body's request fields %+v %+v %d %v, want the client's", sub.Model, sub.Budget, sub.DeadlineMS, sub.Ordered)
						}
						sent = append(sent, sub.Tests...)
					}
				}
				want := slices.Clone(req.Tests)
				slices.Sort(sent)
				slices.Sort(want)
				if !slices.Equal(sent, want) {
					t.Fatalf("the sub-batches carried %d tests, not the client's %d", len(sent), len(want))
				}
				if backends > 1 && homes < 2 {
					t.Fatalf("%d of %d backends received a sub-batch; the test needs several homes", homes, backends)
				}
			})
		}
	}
}
