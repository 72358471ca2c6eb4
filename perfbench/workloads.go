package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"herdcats/internal/crosscheck"
	"herdcats/internal/fleet"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/mine"
)

// modelName is the builtin cat model every verdict is served under.
const modelName = "power"

// Per-workload sizes. Runs are count-bounded: the timed count is a fixed
// rate times --seconds, so every commit serves the same requests and the
// tail percentile names the same rank.
const (
	lightPerSecond  = 1000 // cold-light /v1/run requests
	lightWarmup     = 300
	heavyPerSecond  = 40 // cold-heavy /v1/run requests
	heavyWarmup     = 12
	warmCorpus      = 1024 // distinct tests prefilled into herdd's cache
	warmBatchRows   = 128
	warmPerSecond   = 80 // warm-gw-batch batches
	warmWarmup      = 10
	minePerSecond   = 140 // mine-ppc tests cross-checked
	mineWarmupTests = 80
)

// result is what one run reports: the output line's counts plus metrics by
// name (units come from the metric tables in main.go) and human notes.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.note("FAIL "+format, args...)
	}
}

// coldEnv is herdd plus one keep-alive client, warmed up.
type coldEnv struct {
	h  *herdd
	hc *http.Client
}

func (e *coldEnv) close() {
	e.hc.CloseIdleConnections()
	e.h.close()
}

func newColdEnv(enumWorkers int, rec *spanRec, warm [][]byte) (*coldEnv, error) {
	h, err := startHerdd(herddConfig(enumWorkers), rec)
	if err != nil {
		return nil, err
	}
	e := &coldEnv{h: h, hc: newHTTPClient()}
	for _, b := range warm {
		if r := postRun(e.hc, h.url, b, 0); r.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return e, nil
}

// coldInputs are a cold workload's seeded requests.
type coldInputs struct {
	warm, timed []string
	genUS       []float64 // diy.Generate time per timed test (diy corpora only)
	enumWorkers int
}

func coldLightInputs(seed uint64, seconds int) (*coldInputs, error) {
	n := lightPerSecond * seconds
	srcs, gen, err := lightCorpus(seed, lightWarmup+n)
	if err != nil {
		return nil, err
	}
	return &coldInputs{warm: srcs[:lightWarmup], timed: srcs[lightWarmup:], genUS: gen[lightWarmup:], enumWorkers: 1}, nil
}

func coldHeavyInputs(seed uint64, seconds int) *coldInputs {
	srcs := heavyCorpus(seed, heavyWarmup+heavyPerSecond*seconds)
	return &coldInputs{warm: srcs[:heavyWarmup], timed: srcs[heavyWarmup:], enumWorkers: runtime.NumCPU()}
}

func coldInputsFor(workload string, seed uint64, seconds int) (*coldInputs, error) {
	if workload == "cold-light" {
		return coldLightInputs(seed, seconds)
	}
	return coldHeavyInputs(seed, seconds), nil
}

// runCold is cold-light and cold-heavy: one closed-loop client sends every
// timed test once to /v1/run, so every request misses the verdict cache.
func runCold(in *coldInputs, setup setupTimes) (*result, error) {
	warm, err := runBodies(in.warm)
	if err != nil {
		return nil, err
	}
	bodies, err := runBodies(in.timed)
	if err != nil {
		return nil, err
	}
	env, err := newColdEnv(in.enumWorkers, nil, warm)
	if err != nil {
		return nil, err
	}
	defer env.close()

	runtime.GC()
	st0 := env.h.srv.Cache().Stats()
	meter := startSampler()
	u0 := snapshot()
	replies := make([]runReply, len(bodies))
	for i, b := range bodies {
		replies[i] = postRun(env.hc, env.h.url, b, 0)
	}
	u1 := snapshot()
	meter.close()
	st1 := env.h.srv.Cache().Stats()

	res := &result{attempted: len(bodies)}
	lat := make([]float64, len(replies))
	done := make([]time.Time, len(replies))
	for i, r := range replies {
		lat[i], done[i] = ms(r.latency), r.done
	}
	res.setE2E(setup, e2eTimings(u0.wall, lat, done, 1, meter), u1, "requests")
	res.note("memo.hit_ratio %.3f over the timed run", hitRatio(st0, st1))

	refs, err := oracle(in.timed)
	if err != nil {
		return nil, err
	}
	for i, r := range replies {
		if err := checkRun(r, refs[i]); err != nil {
			res.fail("request %d: %v", i, err)
		}
	}
	return res, nil
}

// hitRatio is the verdict-cache hit share between two Stats snapshots.
func hitRatio(a, b memo.Stats) float64 {
	hits := b.Hits - a.Hits
	all := hits + (b.Misses - a.Misses) + (b.Waits - a.Waits)
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// warmEnv is herdd behind an in-process herd-gw, with every corpus test
// already resident in herdd's verdict cache.
type warmEnv struct {
	h  *herdd
	g  *gateway
	hc *http.Client
	gc *fleet.Client // the load generator's client, pointed at herd-gw
}

func (e *warmEnv) close() {
	e.hc.CloseIdleConnections()
	e.g.close()
	e.h.close()
}

func newWarmEnv(corpus []string, rec *spanRec, warm [][]int) (*warmEnv, error) {
	h, err := startHerdd(herddConfig(1), rec)
	if err != nil {
		return nil, err
	}
	g, err := startGateway(h.url, rec)
	if err != nil {
		h.close()
		return nil, err
	}
	hc := newHTTPClient()
	e := &warmEnv{h: h, g: g, hc: hc, gc: fleet.NewClient(g.url, fleet.Policy{}, hc)}
	ctx := context.Background()
	for i := 0; i < len(corpus); i += 256 {
		chunk := corpus[i:min(i+256, len(corpus))]
		if r := streamBatch(ctx, e.gc, chunk, false); r.err != nil || len(r.rows) != len(chunk) {
			e.close()
			return nil, fmt.Errorf("prefill: %d/%d rows, %v", len(r.rows), len(chunk), r.err)
		}
	}
	for _, b := range warm {
		if r := streamBatch(ctx, e.gc, pick(corpus, b), false); r.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return e, nil
}

func pick(corpus []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = corpus[k]
	}
	return out
}

type warmInputs struct {
	corpus      []string
	genUS       []float64
	warm, timed [][]int
}

func warmGWInputs(seed uint64, seconds int) (*warmInputs, error) {
	corpus, gen, err := lightCorpus(seed, warmCorpus)
	if err != nil {
		return nil, err
	}
	plan := batchPlan(seed, len(corpus), warmWarmup+warmPerSecond*seconds, warmBatchRows)
	return &warmInputs{corpus: corpus, genUS: gen, warm: plan[:warmWarmup], timed: plan[warmWarmup:]}, nil
}

// checkBatch accounts one streamed batch: every row present exactly once,
// no error frames, and every verdict equal to its reference.
func checkBatch(res *result, b int, r batchReply, idx []int, refs []expect) {
	if r.err != nil {
		res.fail("batch %d: %v", b, r.err)
	}
	for _, f := range r.errs {
		res.fail("batch %d: error frame %d: %s", b, f.Index, f.Error.Message)
	}
	seen := make([]bool, len(idx))
	for _, f := range r.rows {
		if f.index < 0 || f.index >= len(idx) || seen[f.index] {
			res.fail("batch %d: stray frame index %d", b, f.index)
			continue
		}
		seen[f.index] = true
		if err := checkRow(f, refs[idx[f.index]]); err != nil {
			res.fail("batch %d row %d: %v", b, f.index, err)
		}
	}
	for i, ok := range seen {
		if !ok {
			res.fail("batch %d: missing frame %d", b, i)
		}
	}
}

// runWarmGW is warm-gw-batch: one client streams fixed-size NDJSON
// batches through herd-gw; every row is a cache hit in herdd.
func runWarmGW(in *warmInputs, setup setupTimes) (*result, error) {
	env, err := newWarmEnv(in.corpus, nil, in.warm)
	if err != nil {
		return nil, err
	}
	defer env.close()

	batches := make([][]string, len(in.timed))
	for i, idx := range in.timed {
		batches[i] = pick(in.corpus, idx)
	}
	ctx := context.Background()
	runtime.GC()
	st0 := env.h.srv.Cache().Stats()
	meter := startSampler()
	u0 := snapshot()
	replies := make([]batchReply, len(batches))
	for i, b := range batches {
		replies[i] = streamBatch(ctx, env.gc, b, false)
	}
	u1 := snapshot()
	meter.close()
	st1 := env.h.srv.Cache().Stats()

	res := &result{attempted: len(batches) * warmBatchRows}
	lat := make([]float64, len(replies))
	done := make([]time.Time, len(replies))
	for i, r := range replies {
		lat[i], done[i] = ms(r.latency), r.done
	}
	res.setE2E(setup, e2eTimings(u0.wall, lat, done, warmBatchRows, meter), u1, fmt.Sprintf("batches of %d rows", warmBatchRows))
	res.note("memo.hit_ratio %.3f over the timed run", hitRatio(st0, st1))

	refs, err := oracle(in.corpus)
	if err != nil {
		return nil, err
	}
	for i, r := range replies {
		checkBatch(res, i, r, in.timed[i], refs)
	}
	return res, nil
}

// mineInputs are a mine-ppc campaign's seeded configuration.
type mineInputs struct {
	timed, warm mine.Config
}

func minePPCInputs(seed uint64, seconds int) *mineInputs {
	cfg := mine.Config{
		Arch:          litmus.PPC,
		ExhaustiveMax: 2,
		SampleSizes:   []int{4, 5},
		Seed:          seed,
		MaxTests:      minePerSecond * seconds,
		Workers:       runtime.NumCPU(),
	}
	warm := cfg
	warm.Seed = seed ^ 0x7761726d
	warm.MaxTests = mineWarmupTests
	return &mineInputs{timed: cfg, warm: warm}
}

// newMiner is mine-ppc's set-up: an untimed warm-up campaign on another
// seed, then the timed campaign's miner with every decider on clock.
func newMiner(in *mineInputs, clock *decideClock) (*mine.Miner, error) {
	w, err := mine.New(in.warm)
	if err != nil {
		return nil, err
	}
	if _, err := w.Run(context.Background()); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	cfg := in.timed
	cfg.Pairs = clockPairs(crosscheck.Pairs(litmus.PPC), clock)
	return mine.New(cfg)
}

// runMine is mine-ppc: one mine.Miner.Run campaign over the PPC pair
// table. Its deciders are wrapped in a clock that only reads the time
// around each Decide, which yields the per-test cross-check latency.
func runMine(in *mineInputs, setup setupTimes) (*result, error) {
	clock := newDecideClock(nil)
	miner, err := newMiner(in, clock)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	meter := startSampler()
	u0 := snapshot()
	sum, err := miner.Run(context.Background())
	u1 := snapshot()
	meter.close()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	lat, done := clock.testLatencies()
	res := mineResult(sum, len(miner.Pairs()))
	res.setE2E(setup, e2eTimings(u0.wall, lat, done, 1, meter), u1, "per-test cross-checks")
	return res, nil
}

// setE2E records the end-to-end metrics of a timed run and notes how its
// tail was taken.
func (r *result) setE2E(setup setupTimes, t timing, after usage, what string) {
	r.metrics = map[string]float64{
		"setup_s":        setup.median(),
		"verdicts_per_s": t.vps,
		"latency_p50_ms": t.p50,
		"peak_rss_mb":    t.rssMB,
	}
	r.note("timings: median over %d slices of %d %s", t.slices, t.perSlice, what)
	r.note("latency_tail_ms %.4f ms: median of the slices' p%.2f (%d beyond each); not gated",
		t.tail.Value, t.tail.Percentile, t.tail.Beyond)
	r.note("host steal %.1f%% of busy CPU time during the timed run; wall-clock verdicts_per_s %.4g, latency_p50_ms %.4g",
		100*t.steal, t.vpsRaw, t.p50Raw)
	r.note("peak_rss_mb: resident set held for %d samples %v apart; getrusage max RSS of the process %.4g MB",
		rssHold, samplePeriod, float64(after.maxRSSKB)/1024)
	r.note("%s", setup)
}

// mineResult applies the failure accounting to a campaign: every pair
// comparison is an operation; a disagreement fails one, and a decider
// error fails every comparison it made impossible.
func mineResult(sum *mine.Summary, pairs int) *result {
	res := &result{attempted: sum.Checked * pairs}
	skipped := res.attempted - sum.PairsChecked
	res.failed = sum.Disagreements + skipped
	res.note("campaign: %d tests, %d pair checks, %d disagreements, %d decider errors, %d generate rejects",
		sum.Checked, sum.PairsChecked, sum.Disagreements, sum.DeciderErrors, sum.GenerateRejects)
	if sum.Checked == 0 {
		res.attempted = 1
		res.failed = 1
		res.note("FAIL campaign checked no tests")
	}
	return res
}
