package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/fleet"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/mine"
	"herdcats/internal/serve"
	"herdcats/internal/sim"
	"herdcats/internal/wire"
)

// The traced run replays a prefix of the workload's seeded inputs; these
// are the prefix lengths.
const (
	lightLedgerTests = 1500
	heavyLedgerTests = 40
	warmLedgerBatch  = 40
	mineLedgerTests  = 600
)

// reconcileEps is the stated ε of the cold ledgers: the summed layer self
// times must land within this share of the end-to-end p50 latency.
const reconcileEps = 0.25

// deciderMetrics names the crosscheck.decide_us metric of every decider in
// the PPC pair table (metric names admit no ':' or spaces).
var deciderMetrics = []struct{ decider, metric string }{
	{"sim:SC", "crosscheck.decide_us.sim.sc"},
	{"sim:TSO", "crosscheck.decide_us.sim.tso"},
	{"sim:Power", "crosscheck.decide_us.sim.power"},
	{"sim:Power nodetour", "crosscheck.decide_us.sim.power_nodetour"},
	{"bmc:SC", "crosscheck.decide_us.bmc.sc"},
	{"bmc:TSO", "crosscheck.decide_us.bmc.tso"},
	{"bmc:Power", "crosscheck.decide_us.bmc.power"},
	{"cat:Power", "crosscheck.decide_us.cat.power"},
	{"machine:Power", "crosscheck.decide_us.machine.power"},
	{"multi:Power multi-event (CAV12)", "crosscheck.decide_us.multi.power"},
	{"hw:power7", "crosscheck.decide_us.hw.power7"},
}

// zeroLedger starts a traced result with every per-layer metric at 0: a
// layer the workload's path does not reach costs it nothing.
func zeroLedger() *result {
	res := &result{metrics: map[string]float64{}}
	for name := range perLayer {
		res.metrics[name] = 0
	}
	return res
}

func writeSpans(res *result, rec *spanRec, dir, workload string, seed uint64) {
	path, err := rec.write(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err != nil {
		res.note("spans not written: %v", err)
		return
	}
	res.note("spans: %s", path)
}

// timeSpan runs f inside a span and returns its duration.
func timeSpan(rec *spanRec, parent int64, name string, f func()) time.Duration {
	s := time.Now()
	f()
	e := time.Now()
	rec.add(0, parent, name, s, e)
	return e.Sub(s)
}

// coldLoop sends every body once, in order, on one client. With tracing it
// records a client span per request whose ID the server-side span names as
// its parent.
func coldLoop(env *coldEnv, bodies [][]byte, rec *spanRec) ([]runReply, []int64) {
	replies := make([]runReply, len(bodies))
	ids := make([]int64, len(bodies))
	for i, b := range bodies {
		id := rec.id()
		s := time.Now()
		replies[i] = postRun(env.hc, env.h.url, b, id)
		ids[i] = rec.add(id, 0, "http.request", s, time.Now())
	}
	return replies, ids
}

// ledgerCold is the traced run of cold-light and cold-heavy. It measures
// the untraced and traced end-to-end loops on fresh servers, then replays
// each test through every layer's public entry point in turn; a layer's
// self time is its call minus the layers it is known to contain.
func ledgerCold(workload string, seed uint64, in *coldInputs, outDir string) (*result, error) {
	n := lightLedgerTests
	if workload == "cold-heavy" {
		n = heavyLedgerTests
	}
	srcs := in.timed[:min(n, len(in.timed))]
	n = len(srcs)
	warm, err := runBodies(in.warm)
	if err != nil {
		return nil, err
	}
	bodies, err := runBodies(srcs)
	if err != nil {
		return nil, err
	}
	refs, err := oracle(srcs)
	if err != nil {
		return nil, err
	}
	res := zeroLedger()
	res.attempted = 2 * n
	rec := newSpanRec()
	sheds := 0
	account := func(replies []runReply) {
		for i, r := range replies {
			if r.status == http.StatusTooManyRequests {
				sheds++
			}
			if err := checkRun(r, refs[i]); err != nil {
				res.fail("request %d: %v", i, err)
			}
		}
	}

	// End to end, tracing off, then on; each on a fresh herdd.
	envU, err := newColdEnv(in.enumWorkers, rec, warm)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	st0, u0 := envU.h.srv.Cache().Stats(), snapshot()
	repliesU, _ := coldLoop(envU, bodies, nil)
	u1, st1 := snapshot(), envU.h.srv.Cache().Stats()
	envU.close()
	account(repliesU)
	latU := make([]float64, n)
	for i, r := range repliesU {
		latU[i] = us(r.latency)
	}
	e2e := median(latU)
	vpsU := float64(n) / u1.wall.Sub(u0.wall).Seconds()

	envT, err := newColdEnv(in.enumWorkers, rec, warm)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rec.on.Store(true)
	t0 := time.Now()
	repliesT, ids := coldLoop(envT, bodies, rec)
	vpsT := float64(n) / time.Since(t0).Seconds()
	rec.on.Store(false)
	envT.close()
	account(repliesT)
	server := map[int64]span{}
	for _, s := range rec.byName("serve.handler") {
		server[s.Parent] = s
	}
	client := map[int64]span{}
	for _, s := range rec.byName("http.request") {
		client[s.ID] = s
	}
	loopback := make([]float64, 0, n)
	for _, id := range ids {
		if s, ok := server[id]; ok {
			loopback = append(loopback, us(client[id].dur()-s.dur()))
		}
	}

	// Layer replay.
	model, err := cat.Builtin(modelName)
	if err != nil {
		return nil, err
	}
	prov, ok := sim.Checker(model).(core.EvaluatorProvider)
	if !ok {
		return nil, errors.New("cat model provides no evaluator")
	}
	cfg := herddConfig(in.enumWorkers)
	budget := exec.Budget{Timeout: cfg.MaxSimTimeout}
	cache := memo.NewWithOptions(cfg.CacheEntries, memo.Options{Workers: cfg.EnumWorkers})
	handler := serve.New(cfg).Handler()
	ctx := context.Background()
	var (
		parse, compile, bind, enum, check, simT, simSelf = make([]float64, n), make([]float64, n),
			make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		memoOver, key, lookup, handlerSelf = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		enumNS, checkNS                    int64
		cands, valid                       int
	)
	runtime.GC()
	rec.on.Store(true)
	for i, src := range srcs {
		root := rec.id()
		rs := time.Now()
		var (
			t    *litmus.Test
			p    *exec.Program
			perr error
		)
		dParse := timeSpan(rec, root, "litmus.parse", func() { t, perr = litmus.Parse(src) })
		if perr != nil {
			res.fail("test %d: parse: %v", i, perr)
			continue
		}
		dCompile := timeSpan(rec, root, "exec.compile", func() { p, perr = exec.Compile(t) })
		if perr != nil {
			res.fail("test %d: compile: %v", i, perr)
			continue
		}
		dBind := timeSpan(rec, root, "cat.bind", func() { _, perr = model.Compile(p) })
		if perr != nil {
			res.fail("test %d: bind: %v", i, perr)
			continue
		}
		req := exec.Request{Workers: cfg.EnumWorkers}
		nc := 0
		dEnum := timeSpan(rec, root, "exec.enumerate", func() {
			perr = p.Search(ctx, req, func(*exec.Candidate) bool { nc++; return true })
		})
		// Search again with the evaluator's Check inside the yield; the
		// check spans are children of this search span.
		ev := prov.NewEvaluator()
		sid := rec.id()
		ss := time.Now()
		var dCheck time.Duration
		nv := 0
		serr := p.Search(ctx, req, func(c *exec.Candidate) bool {
			cs := time.Now()
			r := ev.Check(c.X)
			ce := time.Now()
			rec.add(0, sid, "cat.check", cs, ce)
			dCheck += ce.Sub(cs)
			if r.Valid {
				nv++
			}
			return r.Err == nil
		})
		rec.add(sid, root, "exec.search+cat.check", ss, time.Now())
		if perr != nil || serr != nil {
			res.fail("test %d: search: %v %v", i, perr, serr)
			continue
		}
		var out *sim.Outcome
		dSim := timeSpan(rec, root, "sim.simulate", func() {
			out, perr = sim.Simulate(ctx, sim.Request{Test: t, Checker: model, Budget: budget,
				Options: sim.Options{Workers: cfg.EnumWorkers}})
		})
		if perr != nil || out.Candidates != nc || out.Valid != nv || nc != refs[i].cands {
			res.fail("test %d: replay counts %d/%d, simulate %v", i, nv, nc, perr)
			continue
		}
		var k string
		dKey := timeSpan(rec, root, "memo.key", func() { k = memo.Key(memo.CanonicalTest(t), memo.ModelID(model), budget) })
		mreq := memo.Request{Key: k, Test: t, Model: model, Budget: budget}
		dLookup := timeSpan(rec, root, "memo.lookup", func() { _, _ = cache.Lookup(mreq) })
		dMemo := timeSpan(rec, root, "memo.simulate", func() { _, _, perr = cache.Simulate(ctx, mreq) })
		if perr != nil {
			res.fail("test %d: memo: %v", i, perr)
			continue
		}
		w := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[i]))
		hreq.Header.Set("Content-Type", "application/json")
		dHandler := timeSpan(rec, root, "serve.handler.recorder", func() { handler.ServeHTTP(w, hreq) })
		if w.Code != http.StatusOK {
			res.fail("test %d: handler status %d", i, w.Code)
			continue
		}
		rec.add(root, 0, "ledger.test", rs, time.Now())

		parse[i], compile[i], bind[i], enum[i], check[i] = us(dParse), us(dCompile), us(dBind), us(dEnum), us(dCheck)
		simT[i] = us(dSim)
		simSelf[i] = us(dSim - dCompile - dEnum - dCheck)
		memoOver[i] = us(dMemo - dSim)
		key[i], lookup[i] = us(dKey), us(dLookup)
		handlerSelf[i] = us(dHandler - dParse - dKey - dLookup - dMemo)
		enumNS += dEnum.Nanoseconds()
		checkNS += dCheck.Nanoseconds()
		cands += nc
		valid += nv
	}
	rec.on.Store(false)

	m := res.metrics
	m["litmus.parse_us"] = median(parse)
	m["exec.compile_us"] = median(compile)
	m["exec.enumerate_us"] = median(enum)
	m["exec.enumerate_ns_per_candidate"] = float64(enumNS) / float64(max(cands, 1))
	m["exec.candidates_per_test"] = float64(cands) / float64(n)
	m["cat.bind_us"] = median(bind)
	m["cat.check_ns_per_candidate"] = float64(checkNS) / float64(max(cands, 1))
	m["sim.simulate_us"] = median(simT)
	m["sim.self_us"] = median(simSelf)
	m["sim.valid_ratio"] = float64(valid) / float64(max(cands, 1))
	m["memo.overhead_us"] = median(memoOver)
	m["memo.key_us"] = median(key)
	m["memo.lookup_us"] = median(lookup)
	m["memo.hit_ratio"] = hitRatio(st0, st1)
	m["serve.run_handler_us"] = median(handlerSelf)
	m["serve.shed_ratio"] = float64(sheds) / float64(2*n)
	m["http.loopback_us"] = median(loopback)
	if len(in.genUS) > 0 {
		m["diy.generate_us"] = mean(in.genUS[:n])
	}
	m["process.cpu_ms_per_verdict"], m["process.gc_cpu_frac"], m["process.gc_pause_ms"] = processDelta(u0, u1, n)
	m["trace.overhead_frac"] = 1 - vpsT/vpsU

	layers := []struct {
		name string
		v    float64
	}{
		{"litmus.parse", m["litmus.parse_us"]},
		{"exec.compile", m["exec.compile_us"]},
		{"exec.enumerate", m["exec.enumerate_us"]},
		{"cat.check", median(check)},
		{"sim.self", m["sim.self_us"]},
		{"memo (key+lookup+overhead)", m["memo.key_us"] + m["memo.lookup_us"] + m["memo.overhead_us"]},
		{"serve.handler self", m["serve.run_handler_us"]},
		{"http.loopback", m["http.loopback_us"]},
	}
	var sum float64
	for _, l := range layers {
		sum += l.v
	}
	m["trace.unattributed_frac"] = (e2e - sum) / e2e
	res.note("ledger over %d tests; end-to-end p50 %.1f us (tracing off)", n, e2e)
	for _, l := range layers {
		res.note("  self %-28s %10.1f us  %5.1f%%", l.name, l.v, 100*l.v/e2e)
	}
	res.note("  unattributed %21s %10.1f us  %5.1f%%", "", e2e-sum, 100*(e2e-sum)/e2e)
	verdict := "reconciles"
	if math.Abs(e2e-sum) > reconcileEps*e2e {
		verdict = "DOES NOT reconcile"
	}
	res.note("layer sum %.1f us %s with end-to-end p50 within eps=%.2f", sum, verdict, reconcileEps)
	writeSpans(res, rec, outDir, workload, seed)
	return res, nil
}

// ledgerWarm is the traced run of warm-gw-batch: the untraced loop through
// herd-gw, traced loops direct to herdd and through herd-gw (their
// difference is the gateway hop), the batch handler on a recorder, the
// per-row memo work and the wire codec.
func ledgerWarm(seed uint64, in *warmInputs, outDir string) (*result, error) {
	plan := in.timed[:min(warmLedgerBatch, len(in.timed))]
	nb := len(plan)
	batches := make([][]string, nb)
	for i, idx := range plan {
		batches[i] = pick(in.corpus, idx)
	}
	refs, err := oracle(in.corpus)
	if err != nil {
		return nil, err
	}
	rec := newSpanRec()
	env, err := newWarmEnv(in.corpus, rec, in.warm)
	if err != nil {
		return nil, err
	}
	defer env.close()
	direct := fleet.NewClient(env.h.url, fleet.Policy{}, env.hc)
	res := zeroLedger()
	res.attempted = 3 * nb * warmBatchRows
	ctx := context.Background()
	sheds := 0
	account := func(replies []batchReply) {
		for i, r := range replies {
			for _, f := range r.errs {
				if f.Error.Code == "overloaded" {
					sheds++
				}
			}
			checkBatch(res, i, r, plan[i], refs)
		}
	}

	// Untraced, through herd-gw.
	runtime.GC()
	st0, u0 := env.h.srv.Cache().Stats(), snapshot()
	repliesU := make([]batchReply, nb)
	for i, b := range batches {
		repliesU[i] = streamBatch(ctx, env.gc, b, false)
	}
	u1, st1 := snapshot(), env.h.srv.Cache().Stats()
	account(repliesU)
	latU := make([]float64, nb)
	for i, r := range repliesU {
		latU[i] = ms(r.latency)
	}
	e2e := median(latU)
	vpsU := float64(nb*warmBatchRows) / u1.wall.Sub(u0.wall).Seconds()

	// Traced: direct to herdd, then through herd-gw. The loop is closed
	// and sequential, so the server span recorded during a batch is that
	// batch's.
	tracedLoop := func(c *fleet.Client, name string, keep bool) ([]batchReply, []float64, []float64, float64) {
		replies := make([]batchReply, nb)
		lat := make([]float64, nb)
		self := make([]float64, nb)
		runtime.GC()
		rec.on.Store(true)
		t0 := time.Now()
		for i, b := range batches {
			id := rec.id()
			s := time.Now()
			replies[i] = streamBatch(ctx, c, b, keep)
			e := time.Now()
			rec.add(id, 0, name, s, e)
			lat[i] = ms(e.Sub(s))
			if sv, ok := rec.lastSpan("serve.handler"); ok {
				self[i] = ms(e.Sub(s) - sv.dur())
			}
		}
		vps := float64(nb*warmBatchRows) / time.Since(t0).Seconds()
		rec.on.Store(false)
		return replies, lat, self, vps
	}
	repliesD, latD, loopD, _ := tracedLoop(direct, "http.batch.direct", true)
	account(repliesD)
	repliesG, latG, _, vpsT := tracedLoop(env.gc, "http.batch.gw", false)
	account(repliesG)
	hop := make([]float64, nb)
	for i := range hop {
		hop[i] = latG[i] - latD[i]
	}

	// Batch handler on a recorder, then the per-row memo work it contains.
	handler := env.h.srv.Handler()
	model, err := cat.Builtin(modelName)
	if err != nil {
		return nil, err
	}
	budget := exec.Budget{Timeout: herddConfig(1).MaxSimTimeout}
	cache := env.h.srv.Cache()
	var parse, key, lookup []float64
	streamSelf := make([]float64, nb)
	runtime.GC()
	rec.on.Store(true)
	for i, b := range batches {
		root := rec.id()
		rs := time.Now()
		body, err := json.Marshal(wire.BatchRequest{Tests: b, Model: wire.ModelSpec{Name: modelName}})
		if err != nil {
			return nil, err
		}
		w := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Accept", "application/x-ndjson")
		dHandler := timeSpan(rec, root, "serve.batch.recorder", func() { handler.ServeHTTP(w, hreq) })
		if w.Code != http.StatusOK || strings.Count(w.Body.String(), `"type":"result/v1"`) != len(b) {
			res.fail("batch %d: recorder status %d", i, w.Code)
		}
		var rows time.Duration
		for _, src := range b {
			var t *litmus.Test
			var perr error
			dp := timeSpan(rec, root, "litmus.parse", func() { t, perr = litmus.Parse(src) })
			if perr != nil {
				res.fail("batch %d: parse: %v", i, perr)
				continue
			}
			var k string
			dk := timeSpan(rec, root, "memo.key", func() { k = memo.Key(memo.CanonicalTest(t), memo.ModelID(model), budget) })
			hit := false
			dl := timeSpan(rec, root, "memo.lookup", func() {
				_, hit = cache.Lookup(memo.Request{Key: k, Test: t, Model: model, Budget: budget})
			})
			if !hit {
				res.fail("batch %d: row not resident", i)
			}
			parse, key, lookup = append(parse, us(dp)), append(key, us(dk)), append(lookup, us(dl))
			rows += dp + dk + dl
		}
		rec.add(root, 0, "ledger.batch", rs, time.Now())
		streamSelf[i] = ms(dHandler - rows)
	}

	// The wire codec over every frame the direct loop received.
	var frames []*wire.ResultFrame
	for _, r := range repliesD {
		frames = append(frames, r.frames...)
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	var encD, decD time.Duration
	for _, f := range frames {
		s := time.Now()
		err := enc.Encode(f)
		encD += time.Since(s)
		if err != nil {
			return nil, fmt.Errorf("wire encode: %w", err)
		}
	}
	dec := wire.NewDecoder(&buf)
	decoded := 0
	for {
		s := time.Now()
		_, err := dec.Next()
		decD += time.Since(s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wire decode: %w", err)
		}
		decoded++
	}
	rec.on.Store(false)
	if decoded != len(frames) {
		res.fail("wire: decoded %d of %d frames", decoded, len(frames))
	}

	m := res.metrics
	m["litmus.parse_us"] = median(parse)
	m["memo.key_us"] = median(key)
	m["memo.lookup_us"] = median(lookup)
	m["memo.hit_ratio"] = hitRatio(st0, st1)
	m["serve.batch_stream_ms"] = median(streamSelf)
	m["serve.shed_ratio"] = float64(sheds) / float64(res.attempted)
	m["http.loopback_us"] = 1e3 * median(loopD)
	m["wire.encode_us_per_frame"] = us(encD) / float64(max(len(frames), 1))
	m["wire.decode_us_per_frame"] = us(decD) / float64(max(decoded, 1))
	m["fleet.gw_hop_ms"] = median(hop)
	m["fleet.retries"] = float64(env.gc.Stats().Retries.Load() + direct.Stats().Retries.Load())
	m["diy.generate_us"] = mean(in.genUS)
	m["process.cpu_ms_per_verdict"], m["process.gc_cpu_frac"], m["process.gc_pause_ms"] = processDelta(u0, u1, nb*warmBatchRows)
	m["trace.overhead_frac"] = 1 - vpsT/vpsU

	rowsMS := float64(warmBatchRows) * (m["litmus.parse_us"] + m["memo.key_us"] + m["memo.lookup_us"]) / 1e3
	sum := m["fleet.gw_hop_ms"] + m["http.loopback_us"]/1e3 + m["serve.batch_stream_ms"] + rowsMS
	m["trace.unattributed_frac"] = (e2e - sum) / e2e
	res.note("ledger over %d batches of %d rows; end-to-end p50 %.3f ms per batch (tracing off)", nb, warmBatchRows, e2e)
	res.note("  self fleet.gw_hop %.3f ms, http.loopback %.3f ms, serve.batch_stream %.3f ms, rows (parse+key+lookup) %.3f ms",
		m["fleet.gw_hop_ms"], m["http.loopback_us"]/1e3, m["serve.batch_stream_ms"], rowsMS)
	writeSpans(res, rec, outDir, "warm-gw-batch", seed)
	return res, nil
}

// ledgerMine is the traced run of mine-ppc: an untraced and a traced
// campaign over the same prefix, the traced one timing every Decide, then
// replays, over the tests that campaign checked, of diy generation from
// each test's cycle and of the SAT route's encode and solve.
func ledgerMine(seed uint64, in *mineInputs, outDir string) (*result, error) {
	cfg := in.timed
	cfg.MaxTests = min(cfg.MaxTests, mineLedgerTests)
	res := zeroLedger()
	rec := newSpanRec()
	ctx := context.Background()

	w, err := mine.New(in.warm)
	if err != nil {
		return nil, err
	}
	if _, err := w.Run(ctx); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	plain, err := mine.New(cfg)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	u0 := snapshot()
	sumU, err := plain.Run(ctx)
	u1 := snapshot()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	clock := newDecideClock(rec)
	tcfg := cfg
	tcfg.Pairs = clockPairs(crosscheck.Pairs(litmus.PPC), clock)
	traced, err := mine.New(tcfg)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rec.on.Store(true)
	t0 := time.Now()
	sumT, err := traced.Run(ctx)
	elapsedT := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	pairs := len(plain.Pairs())
	ru, rt := mineResult(sumU, pairs), mineResult(sumT, pairs)
	res.attempted, res.failed = ru.attempted+rt.attempted, ru.failed+rt.failed
	res.notes = append(res.notes, ru.notes...)

	m := res.metrics
	var busy float64
	for _, d := range deciderMetrics {
		xs := clock.per[d.decider]
		m[d.metric] = mean(xs)
		busy += mean(xs) * float64(len(xs))
		res.note("  decide %-34s %9.1f us mean over %d calls", d.decider, mean(xs), len(xs))
	}
	known := map[string]bool{}
	for _, d := range deciderMetrics {
		known[d.decider] = true
	}
	for name := range clock.per {
		if !known[name] {
			res.note("  decider %q has no metric of its own", name)
		}
	}

	var gen, encode, solve []float64
	bmcErrs := 0
	for _, t := range clock.checked() {
		root := rec.id()
		// diy names a generated test after its cycle.
		c, err := diy.ParseCycle(t.Name)
		if err != nil {
			res.fail("test %s: cycle: %v", t.Name, err)
			continue
		}
		var gerr error
		dg := timeSpan(rec, root, "diy.generate", func() { _, gerr = diy.Generate(litmus.PPC, c) })
		if gerr != nil {
			res.fail("test %s: generate: %v", t.Name, gerr)
			continue
		}
		gen = append(gen, us(dg))
		for _, id := range []bmc.ModelID{bmc.SC, bmc.TSO, bmc.Power} {
			var inst *bmc.Instance
			var eerr error
			de := timeSpan(rec, root, "bmc.encode", func() { inst, eerr = bmc.Encode(t, id) })
			if eerr != nil {
				bmcErrs++
				continue
			}
			ds := timeSpan(rec, root, "sat.solve", func() { inst.Solve() })
			encode, solve = append(encode, us(de)), append(solve, us(ds))
		}
	}
	rec.on.Store(false)
	m["diy.generate_us"] = mean(gen)
	m["bmc.encode_us"] = mean(encode)
	m["sat.solve_us"] = mean(solve)
	m["mine.disagreements"] = float64(sumU.Disagreements + sumT.Disagreements)
	m["process.cpu_ms_per_verdict"], m["process.gc_cpu_frac"], m["process.gc_pause_ms"] = processDelta(u0, u1, sumU.Checked)
	vpsU := float64(sumU.Checked) / u1.wall.Sub(u0.wall).Seconds()
	vpsT := float64(sumT.Checked) / elapsedT.Seconds()
	m["trace.overhead_frac"] = 1 - vpsT/vpsU
	capacity := elapsedT.Seconds() * 1e6 * float64(cfg.Workers)
	m["trace.unattributed_frac"] = 1 - busy/capacity
	res.note("ledger over %d tests: deciders busy %.1f%% of %d workers' wall clock; %d bmc encode errors in replay",
		sumT.Checked, 100*busy/capacity, cfg.Workers, bmcErrs)
	writeSpans(res, rec, outDir, "mine-ppc", seed)
	return res, nil
}
