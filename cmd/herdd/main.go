// Command herdd is the litmus-simulation service: herd's verdict
// computation behind a long-running HTTP API, with a content-addressed
// verdict cache and request deduplication (internal/memo, internal/serve).
// Where cmd/herd re-parses, re-compiles and re-enumerates on every
// invocation, herdd answers a repeated (test, model, budget) query from
// memory and collapses concurrent identical queries into one simulation.
//
// Usage:
//
//	herdd [-addr :8787] [-j 0] [-enum-workers 1]
//	      [-cache-entries 4096] [-timeout 30s]
//	      [-max-concurrent 0] [-max-queue 64] [-max-queue-wait 1s]
//	      [-tenant-rate 0] [-tenant-burst 0] [-heartbeat 10s]
//
// Endpoints and the wire format are documented in README.md ("herdd: the
// verdict service"). Observability: GET /metrics serves the Prometheus
// text exposition (request latency histograms, enumeration and cache
// counters), GET /debug/pprof/ the standard profiles, and every /v1/run
// response embeds its phase trace. SIGINT/SIGTERM drain in-flight requests
// before the process exits; a second signal, or an expired drain,
// force-closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"herdcats/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8787", "listen address")
	workers := flag.Int("j", 0, "simulations run in parallel per /v1/batch request (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 4096, "entries kept per cache layer (verdicts, request aliases, compiled models)")
	timeout := flag.Duration("timeout", 30*time.Second, "hard wall-clock cap on one simulation (0 = uncapped)")
	drain := flag.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
	enumWorkers := flag.Int("enum-workers", 1, "workers per verdict, each walking and checking its own shards (0 = GOMAXPROCS, 1 = sequential); never changes verdicts or cache keys")
	maxConcurrent := flag.Int("max-concurrent", 0, "simulations admitted at once across all requests (0 = 2x GOMAXPROCS, floor 4); cache hits bypass admission")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for an admission slot before shedding with 429 (0 = 64)")
	maxQueueWait := flag.Duration("max-queue-wait", 0, "longest one request may wait for a slot before shedding with 429 + Retry-After (0 = 1s)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant simulation admissions per second (token bucket keyed by X-Tenant; 0 = no per-tenant quota)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst size (0 = max(1, ceil(tenant-rate)))")
	heartbeat := flag.Duration("heartbeat", 0, "idle interval between heartbeat frames on NDJSON batch streams (0 = 10s)")
	flag.Parse()

	ew := *enumWorkers
	if ew <= 0 {
		ew = runtime.GOMAXPROCS(0)
	}
	srv := serve.New(serve.Config{
		Workers:           *workers,
		CacheEntries:      *cacheEntries,
		MaxSimTimeout:     *timeout,
		EnumWorkers:       ew,
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *maxQueue,
		MaxQueueWait:      *maxQueueWait,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		HeartbeatInterval: *heartbeat,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	log.Printf("herdd: listening on %s (workers=%d enum-workers=%d cache-entries=%d sim-timeout=%s)",
		*addr, *workers, ew, *cacheEntries, *timeout)

	select {
	case err := <-errc:
		// The listener died on its own (e.g. the port was taken).
		log.Fatalf("herdd: %v", err)
	case <-ctx.Done():
	}

	stop() // a second signal now kills the process the default way
	log.Printf("herdd: draining in-flight requests (up to %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("herdd: drain expired, closing: %v", err)
		_ = srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("herdd: %v", err)
	}
	log.Print("herdd: bye")
}
