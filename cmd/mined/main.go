// Command mined is the continuous differential-mining daemon: the paper's
// data-mining leg (Tab. IX–XII) run as a standing service over the model
// zoo. It sweeps the diy cycle space — exhaustively up to -exhaustive-max,
// then by seeded sampling at the -sample-sizes lengths — cross-checks
// every generated test across the expected-agreement pair table
// (internal/crosscheck), persists all verdicts content-addressed in a
// JSONL journal under -state so a restart resumes instead of recomputing,
// and auto-minimizes any disagreement into a smallest witness .litmus plus
// a JSON discrepancy record under -out.
//
// Usage:
//
//	mined [-addr :8788] [-arch PPC] [-out mined-out] [-state mined-out/corpus.jsonl]
//	      [-seed 1] [-exhaustive-max 3] [-sample-sizes 4,5] [-max-tests 0]
//	      [-j 0] [-batch 64] [-oneshot]
//
// GET /metrics serves the Prometheus text exposition of the mine_*
// families (tests mined, pairs checked, per-pair agreement counters,
// minimization steps, resume hits), GET /healthz a liveness probe. The
// campaign starts immediately; once it finishes the daemon keeps serving
// metrics until SIGINT/SIGTERM (or exits at once with -oneshot).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"herdcats/internal/litmus"
	"herdcats/internal/mine"
	"herdcats/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8788", "listen address for /metrics and /healthz")
	archFlag := flag.String("arch", "PPC", "litmus dialect to mine: PPC, ARM or X86")
	out := flag.String("out", "mined-out", "directory for minimized witnesses and discrepancy records")
	state := flag.String("state", "", "corpus journal path (default <out>/corpus.jsonl)")
	seed := flag.Uint64("seed", 1, "sampler seed; the corpus is a pure function of (arch, sizes, seed)")
	exhaustiveMax := flag.Int("exhaustive-max", 3, "enumerate every cycle up to this length before sampling")
	sampleSizes := flag.String("sample-sizes", "4,5", "comma-separated cycle lengths for the seeded sampler (empty disables sampling)")
	maxTests := flag.Int("max-tests", 0, "stop the campaign after this many tests (0 = run until the space is exhausted)")
	workers := flag.Int("j", 0, "tests cross-checked in parallel (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 64, "tests queued before the worker pool drains them")
	oneshot := flag.Bool("oneshot", false, "exit when the campaign finishes instead of serving until a signal")
	flag.Parse()

	arch, err := parseArch(*archFlag)
	if err != nil {
		log.Fatalf("mined: %v", err)
	}
	sizes, err := parseSizes(*sampleSizes)
	if err != nil {
		log.Fatalf("mined: %v", err)
	}
	journal := *state
	if journal == "" {
		journal = filepath.Join(*out, "corpus.jsonl")
	}
	store, err := mine.OpenStore(journal)
	if err != nil {
		log.Fatalf("mined: %v", err)
	}
	defer store.Close()

	reg := obs.NewRegistry()
	miner, err := mine.New(mine.Config{
		Arch:          arch,
		ExhaustiveMax: *exhaustiveMax,
		SampleSizes:   sizes,
		Seed:          *seed,
		MaxTests:      *maxTests,
		Workers:       *workers,
		Batch:         *batch,
		Store:         store,
		OutDir:        *out,
		Reg:           reg,
	})
	if err != nil {
		log.Fatalf("mined: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: *addr, Handler: miner.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("mined: listening on %s (arch=%s pairs=%d exhaustive-max=%d sample-sizes=%v seed=%d state=%s)",
		*addr, arch, len(miner.Pairs()), *exhaustiveMax, sizes, *seed, journal)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sum, err := miner.Run(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("mined: campaign failed: %v", err)
		}
		if sum != nil {
			data, _ := json.Marshal(sum)
			log.Printf("mined: campaign done: %s", data)
			if sum.Disagreements > 0 {
				log.Printf("mined: %d disagreement(s) — witnesses under %s",
					sum.Disagreements, filepath.Join(*out, "discrepancies"))
			}
		}
	}()

	if *oneshot {
		select {
		case <-done:
		case <-ctx.Done():
			<-done // the campaign honours the same ctx; wait for its summary
		}
	} else {
		select {
		case err := <-errc:
			log.Fatalf("mined: %v", err) // the listener died on its own
		case <-ctx.Done():
			<-done
		}
	}

	stop()
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mined: %v", err)
	}
	log.Print("mined: bye")
}

func parseArch(s string) (litmus.Arch, error) {
	switch strings.ToUpper(s) {
	case "PPC", "POWER":
		return litmus.PPC, nil
	case "ARM":
		return litmus.ARM, nil
	case "X86":
		return litmus.X86, nil
	}
	return "", errors.New("unknown arch " + strconv.Quote(s) + " (want PPC, ARM or X86)")
}

func parseSizes(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return nil, errors.New("bad -sample-sizes entry " + strconv.Quote(f))
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
