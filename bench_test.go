// Package herdcats_bench holds the top-level benchmark harness: one
// testing.B per table and figure family of the paper's evaluation, so that
// `go test -bench=. -benchmem` regenerates the performance side of every
// experiment (EXPERIMENTS.md records the paper-vs-measured comparison).
package herdcats_bench

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/crosscheck"
	"herdcats/internal/exec"
	"herdcats/internal/experiments"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
	"herdcats/internal/machine"
	"herdcats/internal/models"
	"herdcats/internal/mole"
	"herdcats/internal/multi"
	"herdcats/internal/opsim"
	"herdcats/internal/serve"
	"herdcats/internal/sim"
)

// ---------------------------------------------------------------------------
// Figures of Sec. 4: verdict computation for the catalogued paper tests.

func BenchmarkFigureVerdicts(b *testing.B) {
	entries := catalog.Tests()
	programs := make([]*exec.Program, len(entries))
	for i, e := range entries {
		p, err := exec.Compile(e.Test())
		if err != nil {
			b.Fatal(err)
		}
		programs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range programs {
			if _, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: cat.MustBuiltin("power")}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig06SCPerLocation: the five coherence shapes.
func BenchmarkFig06SCPerLocation(b *testing.B) {
	var programs []*exec.Program
	for _, name := range []string{"coWW", "coRW1", "coRW2", "coWR", "coRR"} {
		e, _ := catalog.ByName(name)
		p, err := exec.Compile(e.Test())
		if err != nil {
			b.Fatal(err)
		}
		programs = append(programs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range programs {
			if _, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: cat.MustBuiltin("sc")}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Tab. V/VIII harness: model-vs-hardware confrontation over a corpus.

// BenchmarkTable5Harness times Tab. V's comparison of the Power-ARM
// model with every ARM machine over the length-3 ARM corpus: one
// crosscheck comparison per test, each machine's pair expecting it to
// observe at most what the model allows.
func BenchmarkTable5Harness(b *testing.B) {
	corpus := experiments.BuildCorpus(litmus.ARM, 3, 3, 0)
	model := crosscheck.MustCat("power-arm")
	var pairs []crosscheck.Pair
	for _, m := range hardware.ByArch(hardware.ARM) {
		pairs = append(pairs, crosscheck.Pair{A: crosscheck.Hardware(m), B: model, Rel: crosscheck.Subset})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range corpus.Tests {
			rep, err := crosscheck.ComparePairs(context.Background(), t, pairs...)
			if err != nil || len(rep.Errors) > 0 {
				b.Fatal(err, rep.Errors)
			}
		}
	}
}

func BenchmarkTable8Classify(b *testing.B) {
	e, _ := catalog.ByName("mp+dmb+fri-rfi-ctrlisb")
	cands, err := exec.Candidates(e.Test())
	if err != nil {
		b.Fatal(err)
	}
	ev := cat.MustBuiltin("power-arm").NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			res := ev.Check(c.X)
			_ = res.FailedChecks
		}
	}
}

// ---------------------------------------------------------------------------
// Tab. IX: the three simulation styles on the same test (iriw, the
// heaviest classic shape).

func table9Candidates(b *testing.B) []*exec.Candidate {
	e, _ := catalog.ByName("iriw")
	cands, err := exec.Candidates(e.Test())
	if err != nil {
		b.Fatal(err)
	}
	return cands
}

func BenchmarkSimSingleEvent(b *testing.B) {
	cands := table9Candidates(b)
	ev := cat.MustBuiltin("power").NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			ev.Check(c.X)
		}
	}
}

func BenchmarkSimMultiEvent(b *testing.B) {
	cands := table9Candidates(b)
	m := multi.Model{}.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			m.Check(c.X)
		}
	}
}

func BenchmarkSimOperational(b *testing.B) {
	cands := table9Candidates(b)
	md, err := machine.NewModel(cat.MustBuiltin("power"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			m, err := machine.New(md, c.X)
			if err != nil {
				b.Fatal(err)
			}
			m.ExploreBounded(1 << 16)
		}
	}
}

// ---------------------------------------------------------------------------
// Tab. X: operational-instrumentation route vs in-tool axiomatic BMC.

func BenchmarkBMCOperationalRoute(b *testing.B) {
	e, _ := catalog.ByName("iriw+lwsyncs")
	test := e.Test()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opsim.Run(test, cat.MustBuiltin("power"), 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMCAxiomaticRoute(b *testing.B) {
	e, _ := catalog.ByName("iriw+lwsyncs")
	test := e.Test()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := bmc.Encode(test, bmc.Power)
		if err != nil {
			b.Fatal(err)
		}
		inst.Solve()
	}
}

// ---------------------------------------------------------------------------
// Tab. XI: the CAV12 model vs the present model inside the verifier.

func BenchmarkBMCCav(b *testing.B) { benchBMCModel(b, bmc.PowerCAV) }

func BenchmarkBMCPresent(b *testing.B) { benchBMCModel(b, bmc.Power) }

func benchBMCModel(b *testing.B, id bmc.ModelID) {
	e, _ := catalog.ByName("mp+lwsync+addr-bigdetour-addr")
	test := e.Test()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := bmc.Encode(test, id)
		if err != nil {
			b.Fatal(err)
		}
		inst.Solve()
	}
}

// ---------------------------------------------------------------------------
// Tab. XII: the case-study verifications.

func BenchmarkTable12CaseStudies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table12(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Tab. XIII/XIV and the Sec. 9 mining: mole throughput.

func BenchmarkMolePgSQL(b *testing.B) { benchMole(b, mole.PgSQLSource) }
func BenchmarkMoleRCU(b *testing.B)   { benchMole(b, mole.RCUSource) }

func benchMole(b *testing.B, src string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := mole.NewProgram()
		if err := p.Add(src); err != nil {
			b.Fatal(err)
		}
		mole.Analyze(p).FindCycles(2)
	}
}

func BenchmarkMoleCorpus(b *testing.B) {
	units := mole.SyntheticCorpus(20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			p := mole.NewProgram()
			if err := p.Add(u); err != nil {
				b.Fatal(err)
			}
			mole.Analyze(p).FindCycles(2)
		}
	}
}

// ---------------------------------------------------------------------------
// diy generation throughput (the Sec. 8.1 campaign's front end).

func BenchmarkDiyGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := experiments.BuildCorpus(litmus.PPC, 3, 3, 0)
		if len(c.Tests) == 0 {
			b.Fatal("no tests generated")
		}
	}
}

// ---------------------------------------------------------------------------
// cat-interpreter overhead: Fig. 38 interpreted vs the native Go model.

func BenchmarkCheckNativePower(b *testing.B) {
	cands := table9Candidates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			models.Power.Check(c.X)
		}
	}
}

func BenchmarkCheckCatPower(b *testing.B) {
	cands := table9Candidates(b)
	m, err := cat.Builtin("power")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			m.Check(c.X)
		}
	}
}

// ---------------------------------------------------------------------------
// Serving layer (cmd/herdd): the warm path — a content-addressed cache hit
// — against the cold path that parses, compiles and enumerates. The
// acceptance bar is a >= 10x speedup for a repeated verdict.

// serveRunBody builds the /v1/run request for a catalogued test.
func serveRunBody(b *testing.B, model string) []byte {
	e, ok := catalog.ByName("iriw")
	if !ok {
		b.Fatal("catalogue has no iriw test")
	}
	body, err := json.Marshal(serve.RunRequest{
		Litmus: e.Source,
		Model:  serve.ModelSpec{Name: model},
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// servePost drives one request through the handler without a network.
func servePost(b *testing.B, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

func BenchmarkServeWarmCache(b *testing.B) {
	s := serve.New(serve.Config{})
	h := s.Handler()
	body := serveRunBody(b, "power")
	servePost(b, h, body) // populate the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePost(b, h, body)
	}
}

func BenchmarkServeColdCache(b *testing.B) {
	body := serveRunBody(b, "power")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh server per iteration: every request misses and pays the
		// full parse + compile + enumerate + check pipeline.
		s := serve.New(serve.Config{})
		servePost(b, s.Handler(), body)
	}
}
