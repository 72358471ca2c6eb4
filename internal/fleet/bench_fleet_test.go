package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"herdcats/internal/wire"
)

// benchColdVariant is the cold half of the bench corpus: five stores to
// one location give each test a real enumeration (coherence-order
// blowup) instead of a trivial four-instruction sweep, so the recorded
// throughput measures simulation capacity, not HTTP framing.
func benchColdVariant(i int) string {
	return fmt.Sprintf(`X86 benchcold%04d
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [x],$4 ;
 MOV [x],$2 | MOV [x],$5 ;
 MOV [x],$3 | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=6)`, i)
}

// TestBenchFleetJSON, gated on BENCH_FLEET_OUT, streams a mixed
// warm/cold corpus through herd-gw at 1 and 3 in-process nodes and
// writes the verdicts/sec record CI commits as BENCH_fleet.json. The
// nodes share this machine's cores, so the scaling is honest only up to
// the recorded core count — on a single-core runner 3 nodes buys
// cache capacity, not parallelism.
func TestBenchFleetJSON(t *testing.T) {
	out := os.Getenv("BENCH_FLEET_OUT")
	if out == "" {
		t.Skip("set BENCH_FLEET_OUT=<path> to run the bench and write the JSON record")
	}

	// The corpus interleaves 120 warm tests (pre-run below, so they
	// answer from the fleet's verdict caches) with 120 cold ones that
	// each force a fresh enumeration.
	const nWarm, nCold = 120, 120
	warmTests := make([]string, nWarm)
	for i := range warmTests {
		warmTests[i] = sbVariant(9000 + i)
	}
	corpus := make([]string, 0, nWarm+nCold)
	for i := 0; i < nWarm; i++ {
		corpus = append(corpus, warmTests[i], benchColdVariant(i))
	}

	type row struct {
		Nodes          int     `json:"nodes"`
		WarmupMS       int64   `json:"warmup_ms"`
		ElapsedMS      int64   `json:"elapsed_ms"`
		VerdictsPerSec float64 `json:"verdicts_per_sec"`
		CacheHits      int     `json:"cache_hits"`
	}
	var rows []row
	ctx := context.Background()
	for _, nodes := range []int{1, 3} {
		gw, _ := newFleet(t, nodes, GatewayConfig{})
		front := httptest.NewServer(gw.Handler())
		client := NewClient(front.URL, Policy{Timeout: 5 * time.Minute}, nil)

		// Warm the fleet's caches through the gateway so the warm half
		// homes onto (and hits) the same backends the timed run routes to.
		warmStart := time.Now()
		if _, err := client.Batch(ctx, wire.BatchRequest{Tests: warmTests, Model: wire.ModelSpec{Name: "tso"}}); err != nil {
			t.Fatal(err)
		}
		warmup := time.Since(warmStart)

		start := time.Now()
		delivered, cacheHits := 0, 0
		err := client.BatchStream(ctx, wire.BatchRequest{Tests: corpus, Model: wire.ModelSpec{Name: "tso"}}, func(frame any) error {
			switch f := frame.(type) {
			case *wire.ResultFrame:
				delivered++
			case *wire.ErrorFrame:
				t.Errorf("index %d errored: %+v", f.Index, f.Error)
			case *wire.SummaryFrame:
				cacheHits = f.CacheHits
			}
			return nil
		})
		elapsed := time.Since(start)
		front.Close()
		if err != nil {
			t.Fatal(err)
		}
		if delivered != len(corpus) {
			t.Fatalf("%d nodes: %d of %d verdicts delivered", nodes, delivered, len(corpus))
		}
		if cacheHits < nWarm {
			t.Errorf("%d nodes: only %d cache hits for %d pre-warmed tests", nodes, cacheHits, nWarm)
		}
		rows = append(rows, row{
			Nodes:          nodes,
			WarmupMS:       warmup.Milliseconds(),
			ElapsedMS:      elapsed.Milliseconds(),
			VerdictsPerSec: float64(delivered) / elapsed.Seconds(),
			CacheHits:      cacheHits,
		})
		t.Logf("nodes=%d: %d verdicts in %s (%.0f verdicts/sec, %d cache hits)",
			nodes, delivered, elapsed.Round(time.Millisecond), float64(delivered)/elapsed.Seconds(), cacheHits)
	}

	record := struct {
		Corpus     string `json:"corpus"`
		Tests      int    `json:"tests"`
		Warm       int    `json:"warm"`
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Model      string `json:"model"`
		Stream     bool   `json:"stream"`
		Rows       []row  `json:"rows"`
	}{
		Corpus:     "120 sb variants (pre-warmed) interleaved with 120 five-store coherence tests (cold)",
		Tests:      len(corpus),
		Warm:       nWarm,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Model:      "tso",
		Stream:     true,
		Rows:       rows,
	}
	buf, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
