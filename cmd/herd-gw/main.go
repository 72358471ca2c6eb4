// Command herd-gw is the fleet gateway: it fronts N herdd backends,
// routes each verdict key to its home backend by rendezvous hashing (so
// repeated queries hit a warm verdict cache), health-checks the fleet,
// ejects failing backends behind per-backend circuit breakers, and fails
// requests over along each key's deterministic backend ranking.
// Duplicate keys share a home backend, whose single-flight cache joins
// them.
//
// Usage:
//
//	herd-gw -backends http://h1:8787,http://h2:8787 [-addr :8786]
//	        [-probe-interval 1s] [-breaker-threshold 3] [-breaker-cooldown 5s]
//	        [-attempts 3] [-timeout 60s] [-heartbeat 10s] [-drain 15s]
//
// Endpoints mirror herdd's wire format: POST /v1/run, POST /v1/batch
// (fanned out per home backend as upstream NDJSON streams, and answered
// as an NDJSON stream under Accept: application/x-ndjson or as one
// buffered JSON document otherwise), GET /healthz, GET /metrics,
// plus GET /gw/backends for the fleet view. Error envelopes and 429
// Retry-After headers pass through from the backends byte-for-byte.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"herdcats/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8786", "listen address")
	backends := flag.String("backends", "", "comma-separated herdd base URLs (required)")
	probeInterval := flag.Duration("probe-interval", time.Second, "spacing of per-backend /healthz probes")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that eject a backend")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "ejection time before a half-open trial")
	attempts := flag.Int("attempts", 3, "tries per backend request, the first included")
	timeout := flag.Duration("timeout", 60*time.Second, "per-attempt wall clock for one backend request")
	heartbeat := flag.Duration("heartbeat", 0, "idle interval between heartbeat frames on NDJSON batch streams (0 = 10s)")
	drain := flag.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		log.Fatal("herd-gw: -backends is required (comma-separated herdd base URLs)")
	}

	gw, err := fleet.NewGateway(fleet.GatewayConfig{
		Backends: urls,
		Policy: fleet.Policy{
			MaxAttempts: *attempts,
			Timeout:     *timeout,
		},
		ProbeInterval:     *probeInterval,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		HeartbeatInterval: *heartbeat,
	})
	if err != nil {
		log.Fatalf("herd-gw: %v", err)
	}
	defer gw.Close()

	srv := &http.Server{Addr: *addr, Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("herd-gw: listening on %s, routing %d backends (%s)", *addr, len(urls), strings.Join(urls, ", "))

	select {
	case err := <-errc:
		log.Fatalf("herd-gw: %v", err)
	case <-ctx.Done():
	}

	stop()
	log.Printf("herd-gw: draining in-flight requests (up to %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("herd-gw: drain expired, closing: %v", err)
		_ = srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("herd-gw: %v", err)
	}
	log.Print("herd-gw: bye")
}
