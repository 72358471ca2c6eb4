package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// TestWarmGatewayBatchAllocsCeiling is the CI bench-smoke guard on what
// a warm streamed batch costs the allocator end to end: a 128-row
// NDJSON batch posted to an httptest herd-gw over one herdd, every row a
// cache hit, read to the end. It counts the bytes allocated per row
// (runtime.MemStats TotalAlloc over many batches, client, gateway and
// node together). The ceiling sits just above the figures measured once
// stream buffers were pooled, the home pick stopped sorting and herd-gw
// stopped escaping exact literals again (go1.24, GOMAXPROCS 2: 2144–2628
// bytes per row over twelve runs, the spread being how often a GC empties
// the pools; 5328–5641 before). Gated on BENCH_ENUM_OUT like the other
// bench asserts.
func TestWarmGatewayBatchAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the warm gateway batch allocation ceiling check")
	}
	node := httptest.NewServer(serve.New(serve.Config{Workers: 2}).Handler())
	t.Cleanup(node.Close)
	gw, err := NewGateway(GatewayConfig{Backends: []string{node.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	const rows, batches = 128, 40
	req := wire.BatchRequest{Model: wire.ModelSpec{Name: "tso"}}
	for i := 0; i < rows; i++ {
		req.Tests = append(req.Tests, sbVariant(i))
	}
	body := wire.AppendBatchRequest(nil, &req)
	post := func() {
		hr, err := http.NewRequest(http.MethodPost, front.URL+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Accept", wire.ContentTypeNDJSON)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
	}
	for i := 0; i < 5; i++ { // fill the caches, the alias and the pools
		post()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (batches * rows)
	t.Logf("warm gateway batch: %.0f bytes allocated per row", perRow)
	const ceiling = 2800
	if perRow > ceiling {
		t.Errorf("warm gateway batch: %.0f bytes per row, ceiling %d — per-stream or per-row garbage is back", perRow, ceiling)
	}
}
