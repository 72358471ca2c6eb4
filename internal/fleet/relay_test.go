package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// elapsedField is the one field of a result/v1 line that is a timing.
var elapsedField = regexp.MustCompile(`,"elapsed_ms":-?[0-9]+`)

// streamResultLines posts req to url's /v1/batch as an NDJSON stream
// and returns its result/v1 lines by request index, with elapsed_ms
// zeroed.
func streamResultLines(t *testing.T, url string, req wire.BatchRequest) map[int]string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Accept", wire.ContentTypeNDJSON)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	lines := map[int]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var head struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			t.Fatalf("%s: %v in %s", url, err, sc.Bytes())
		}
		switch head.Type {
		case wire.FrameResult:
			if _, dup := lines[head.Index]; dup {
				t.Fatalf("%s: index %d streamed twice", url, head.Index)
			}
			lines[head.Index] = elapsedField.ReplaceAllString(sc.Text(), `,"elapsed_ms":0`)
		case wire.FrameError:
			t.Fatalf("%s: error frame %s", url, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGatewayRelaysDirectBytes: the whole catalogue under power,
// streamed directly from one herdd and through herd-gw over two, cold,
// then warm (each hit keeps its verdict's body), then warm again (each
// hit appends the kept body), ordered and unordered, carries
// byte-identical result/v1 lines at every request index (elapsed_ms, a
// timing, aside). The gateway relays each encoder-shaped upstream line
// with only its index rewritten and decodes and re-encodes any other, so
// this pins both paths to the bytes herdd writes.
func TestGatewayRelaysDirectBytes(t *testing.T) {
	var tests []string
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Source)
	}
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) {
			direct := httptest.NewServer(serve.New(serve.Config{Workers: 2}).Handler())
			t.Cleanup(direct.Close)
			gw, _ := newFleet(t, 2, GatewayConfig{})
			front := httptest.NewServer(gw.Handler())
			t.Cleanup(front.Close)

			req := wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: "power"}, Ordered: ordered}
			for _, pass := range []string{"cold", "first warm", "kept bodies"} {
				want := streamResultLines(t, direct.URL, req)
				got := streamResultLines(t, front.URL, req)
				if len(want) != len(tests) || len(got) != len(tests) {
					t.Fatalf("%s: %d direct and %d gateway result lines for %d tests", pass, len(want), len(got), len(tests))
				}
				for i := range tests {
					if got[i] != want[i] {
						t.Errorf("%s row %d:\n gateway %s\n direct  %s", pass, i, got[i], want[i])
					}
				}
			}
		})
	}
}
