package herdcats_bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
)

// coHeavySrc is the parallel-enumeration workload: four threads of three
// writes each over three locations. Every location collects four writes
// plus its initial one, so the candidate count is the pure coherence
// product 4!³ = 13824 — no reads, so rf contributes nothing. The shard tree is wide at the top (the co positions of the
// first thread's writes), which is exactly the shape exec.SearchShards
// splits across workers.
const coHeavySrc = `PPC coheavy
{ 0:r1=x; 0:r2=y; 0:r3=z;
  1:r1=x; 1:r2=y; 1:r3=z;
  2:r1=x; 2:r2=y; 2:r3=z;
  3:r1=x; 3:r2=y; 3:r3=z; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | li r4,2 | li r4,3 | li r4,4 ;
 stw r4,0(r1) | stw r4,0(r1) | stw r4,0(r1) | stw r4,0(r1) ;
 stw r4,0(r2) | stw r4,0(r2) | stw r4,0(r2) | stw r4,0(r2) ;
 stw r4,0(r3) | stw r4,0(r3) | stw r4,0(r3) | stw r4,0(r3) ;
exists (x=1 /\ y=2 /\ z=3)`

// coldHeavySrc is the benchmark's cold-heavy shape: four threads each
// store their own constant to x and to y around an lwsync, so every
// location collects four writes and the candidate space is the coherence
// product 4!·4! = 576; propagation rejects the 2+2W cycles among them.
const coldHeavySrc = `PPC heavy
{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; 2:r1=x; 2:r2=y; 3:r1=x; 3:r2=y; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | li r4,2 | li r4,3 | li r4,4 ;
 stw r4,0(r1) | stw r4,0(r2) | stw r4,0(r1) | stw r4,0(r2) ;
 lwsync | lwsync | lwsync | lwsync ;
 stw r4,0(r2) | stw r4,0(r1) | stw r4,0(r2) | stw r4,0(r1) ;
exists (x=1 /\ y=2)`

// enumerateHash drives one full partitioned enumeration and folds every
// candidate of the shard streams, concatenated in shard order, into a
// SHA-256, so equal hashes mean byte-identical streams.
func enumerateHash(tb testing.TB, workers int) (string, int) {
	tb.Helper()
	p := compileBench(tb, coHeavySrc)
	parts, err := exec.SearchShards(context.Background(), p, exec.Request{Workers: workers},
		func() func(exec.Walk) *bytes.Buffer {
			return func(walk exec.Walk) *bytes.Buffer {
				var b bytes.Buffer
				walk(func(c *exec.Candidate) bool {
					fmt.Fprintf(&b, "%s|%v|%v\n", c.State.Key(nil), c.X.RF.Pairs(), c.X.CO.Pairs())
					return true
				})
				return &b
			}
		})
	if err != nil {
		tb.Fatalf("workers=%d: %v", workers, err)
	}
	h := sha256.New()
	n := 0
	for _, b := range parts {
		n += bytes.Count(b.Bytes(), []byte{'\n'})
		h.Write(b.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// countShards walks the partitioned search with a no-op consumer that only
// counts, returning the folded candidate count: the walk's own cost.
func countShards(p *exec.Program, req exec.Request) (int, error) {
	parts, err := exec.SearchShards(context.Background(), p, req, func() func(exec.Walk) int {
		return func(walk exec.Walk) int {
			n := 0
			walk(func(*exec.Candidate) bool { n++; return true })
			return n
		}
	})
	n := 0
	for _, c := range parts {
		n += c
	}
	return n, err
}

func compileBench(tb testing.TB, src string) *exec.Program {
	tb.Helper()
	p, err := exec.Compile(litmus.MustParse(src))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// timedSearch runs one full co-heavy partitioned enumeration with a no-op
// consumer and the given sink and returns the wall clock. A nil sink is the
// instrumentation-disabled path.
func timedSearch(tb testing.TB, p *exec.Program, workers int, sink *obs.EnumStats) time.Duration {
	tb.Helper()
	start := time.Now()
	n, err := countShards(p, exec.Request{Workers: workers, Obs: sink})
	if err != nil {
		tb.Fatal(err)
	}
	if n != 13824 {
		tb.Fatalf("enumerated %d candidates, want 13824", n)
	}
	return time.Since(start)
}

// BenchmarkEnumerateParallel measures the partitioned enumeration of the
// co-heavy workload at increasing worker counts, with a no-op consumer and
// instrumentation off (obs=0, a nil sink — the default) and on (obs=1, a
// live EnumStats). The concatenated shard streams are the sequential
// stream at every width (TestBenchEnumerateJSON verifies the hash), so the
// sub-benchmarks are directly comparable.
func BenchmarkEnumerateParallel(b *testing.B) {
	p := compileBench(b, coHeavySrc)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, instrumented := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/obs=%d", workers, b2i(instrumented))
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var sink *obs.EnumStats
				if instrumented {
					sink = &obs.EnumStats{}
				}
				for i := 0; i < b.N; i++ {
					n, err := countShards(p, exec.Request{Workers: workers, Obs: sink})
					if err != nil {
						b.Fatal(err)
					}
					if n != 13824 {
						b.Fatalf("enumerated %d candidates, want 13824", n)
					}
				}
			})
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// benchRow is one line of BENCH_enumerate.json.
type benchRow struct {
	Workers    int     `json:"workers"`
	Procs      int     `json:"procs"` // schedulable parallelism: min(workers, GOMAXPROCS)
	NsPerOp    int64   `json:"ns_per_op"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"` // speedup / procs; 1.0 = perfect scaling
	Candidates int     `json:"candidates"`
	StreamOK   bool    `json:"stream_identical"`
}

// unpinProcs undoes the core-pinning bug that produced the original
// BENCH_enumerate.json: the harness inherited GOMAXPROCS=1 from the
// runner, so the 2/4/8-worker timings all ran on one OS thread and the
// "speedup" column read ~1.06x regardless of the sharding. Raise
// GOMAXPROCS to the machine's core count for the duration of the bench
// (restored on cleanup) and return the effective value; on a genuinely
// single-core machine this is honestly 1 and the curve says so.
func unpinProcs(tb testing.TB) int {
	tb.Helper()
	cores := runtime.NumCPU()
	if prev := runtime.GOMAXPROCS(0); prev < cores {
		runtime.GOMAXPROCS(cores)
		tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		tb.Logf("bench: raised GOMAXPROCS %d -> %d (was pinned below the core count)", prev, cores)
	}
	return runtime.GOMAXPROCS(0)
}

// TestBenchEnumerateJSON, gated on BENCH_ENUM_OUT, times the co-heavy
// partitioned walk (a no-op consumer) at 1/2/4/8 workers and verifies the
// shard streams concatenate to the sequential stream; times the whole
// verdict — sim.Simulate under compiled cat Power — at the same worker
// counts and fails if any outcome differs from workers=1; times one-worker
// sim.Simulate of the cold-heavy shape with its enumerate/check split;
// measures the overhead of enabled instrumentation against the nil-sink
// path; and writes the machine-readable record the CI bench step commits
// as BENCH_enumerate.json. Speedups are honest for the recorded core count:
// on a single-core runner they hover around 1x.
func TestBenchEnumerateJSON(t *testing.T) {
	out := os.Getenv("BENCH_ENUM_OUT")
	if out == "" {
		t.Skip("set BENCH_ENUM_OUT=<path> to run the bench and write the JSON record")
	}
	procs := unpinProcs(t)
	wantHash, wantN := enumerateHash(t, 0) // sequential reference
	p := compileBench(t, coHeavySrc)
	rows := walkBenchRows(t, p, procs, wantHash, wantN)

	// Instrumentation overhead, measured within this run so machine speed
	// cancels out: interleave nil-sink and live-sink repetitions and
	// compare medians. The engine flushes its counters once per search
	// (or per shard), so the enabled path should sit within noise of the
	// disabled one; the record keeps CI honest about it. The raw ratio is
	// kept verbatim, but the headline number clamps small negatives to
	// zero: an earlier record shipped obs_overhead = -1.05%, which is not
	// the instrumentation speeding up the search, just scheduler noise at
	// a magnitude below what this harness can resolve. A negative reading
	// beyond the floor survives the clamp — that would be a real anomaly
	// worth seeing.
	offMed, onMed := obsOverhead(t, p)
	rawOverhead := float64(onMed)/float64(offMed) - 1
	const obsNoiseFloor = 0.03
	overhead := rawOverhead
	if overhead < 0 && overhead >= -obsNoiseFloor {
		overhead = 0
	}

	// The enumeration cost itself: the walk alone, allocator-accounted.
	enumRows := []enumRow{enumBench(t, p, 1), enumBench(t, p, 8)}

	// The checking layer itself: the allocation-storm before/after.
	checkRows, catSpeedup, catAllocRatio := checkBenchRows(t, p)

	// The whole verdict: walk and check, both split across the workers.
	simRows := simulateBenchRows(t, p, procs)

	record := struct {
		Test           string        `json:"test"`
		Candidates     int           `json:"candidates"`
		Cores          int           `json:"cores"`
		GoMaxProcs     int           `json:"gomaxprocs"`
		Rows           []benchRow    `json:"rows"`
		SimulateRows   []simulateRow `json:"simulate_rows"`
		EnumRows       []enumRow     `json:"enum_rows"`
		CheckRows      []checkRow    `json:"check_rows"`
		ColdHeavy      coldHeavyRow  `json:"cold_heavy_simulate"`
		CatSpeedup     float64       `json:"cat_check_speedup"`
		CatAllocRatio  float64       `json:"cat_check_alloc_ratio"`
		ObsOffNsPerOp  int64         `json:"obs_off_ns_per_op"`
		ObsOnNsPerOp   int64         `json:"obs_on_ns_per_op"`
		ObsOverhead    float64       `json:"obs_overhead"`
		ObsOverheadRaw float64       `json:"obs_overhead_raw"`
	}{
		Test:           "coheavy (4 threads x 3 writes, 4!^3 candidates)",
		Candidates:     wantN,
		Cores:          runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Rows:           rows,
		SimulateRows:   simRows,
		EnumRows:       enumRows,
		CheckRows:      checkRows,
		ColdHeavy:      coldHeavyBench(t),
		CatSpeedup:     catSpeedup,
		CatAllocRatio:  catAllocRatio,
		ObsOffNsPerOp:  offMed,
		ObsOnNsPerOp:   onMed,
		ObsOverhead:    overhead,
		ObsOverheadRaw: rawOverhead,
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (cores=%d, gomaxprocs=%d)", out, record.Cores, record.GoMaxProcs)
	t.Log("walk scaling curve (workers: ns/op, speedup vs 1 worker, efficiency vs schedulable procs):")
	for _, r := range rows {
		t.Logf("  workers=%d procs=%d: %v/op, speedup %.2fx, efficiency %.0f%%",
			r.Workers, r.Procs, time.Duration(r.NsPerOp), r.Speedup, r.Efficiency*100)
	}
	t.Log("whole-verdict scaling curve (sim.Simulate, compiled cat Power):")
	for _, r := range simRows {
		t.Logf("  workers=%d procs=%d: %v/op, speedup %.2fx, efficiency %.0f%%",
			r.Workers, r.Procs, time.Duration(r.NsPerOp), r.Speedup, r.Efficiency*100)
	}
	t.Logf("obs overhead: off %v, on %v (%.1f%%, raw %.1f%%)",
		time.Duration(offMed), time.Duration(onMed), overhead*100, rawOverhead*100)
	for _, r := range enumRows {
		t.Logf("enum workers=%d: %v/candidate, %.2f allocs/candidate, gc pause %v",
			r.Workers, time.Duration(r.NsPerOp), r.AllocsPerOp, time.Duration(int64(r.GCPauseTotalNs)))
	}
	for _, r := range checkRows {
		t.Logf("check %s: %v/op, %.1f allocs/op, gc pause %v",
			r.Checker, time.Duration(r.NsPerOp), r.AllocsPerOp, time.Duration(r.GCPauseTotalNs))
	}
	t.Logf("cat check compiled vs interpreted: %.1fx faster, %.0fx fewer allocs",
		catSpeedup, catAllocRatio)
	ch := record.ColdHeavy
	t.Logf("cold-heavy Simulate, one worker: %v/op; per candidate: enumerate %v, check %v",
		time.Duration(ch.NsPerOp), time.Duration(ch.EnumerateNsPerCandidate), time.Duration(ch.CheckNsPerCandidate))
}

// coldHeavyRow is one-worker sim.Simulate of the cold-heavy shape under
// compiled cat Power: the whole verdict untraced, and its enumerate/check
// split per candidate from traced runs (obs phases; enumerate is the walk
// with the derivation the enumeration itself does, check the evaluator
// with the derivation it demands). The check phase is sim's sampled
// estimate, as CheckSpan says in the record. Each figure is a median
// over Reps.
type coldHeavyRow struct {
	Test                    string `json:"test"`
	Candidates              int    `json:"candidates"`
	Valid                   int    `json:"valid"`
	Reps                    int    `json:"reps"`
	NsPerOp                 int64  `json:"ns_per_op"`
	EnumerateNsPerCandidate int64  `json:"enumerate_ns_per_candidate"`
	CheckNsPerCandidate     int64  `json:"check_ns_per_candidate"`
	CheckSpan               string `json:"check_span"`
}

// sampledCheckSpan describes how sim takes the check phase.
const sampledCheckSpan = "sampled estimate: each shard times the checks of its candidates 0, 1, 2, 4, ..., 32 and every 64th, " +
	"each standing for the untimed ones since the previous; enumerate is the rest of the walk (DESIGN.md 9.2)"

// coldHeavyReps is how many untraced and traced Simulates the cold-heavy
// row takes its medians over; one is a couple of milliseconds.
const coldHeavyReps = 41

// coldHeavyBench measures the cold-heavy row, alternating untraced and
// traced runs after a warm-up that lowers the cat model once.
func coldHeavyBench(t *testing.T) coldHeavyRow {
	t.Helper()
	p := compileBench(t, coldHeavySrc)
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	row := coldHeavyRow{Test: "2+2W+lwsyncs (4 threads x 2 writes, 4!^2 candidates)", Reps: coldHeavyReps, CheckSpan: sampledCheckSpan}
	run := func(tr *obs.Trace) time.Duration {
		start := time.Now()
		out, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: m, Obs: tr})
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if out.Candidates != 576 {
			t.Fatalf("cold-heavy: simulated %d candidates, want 576", out.Candidates)
		}
		row.Candidates, row.Valid = out.Candidates, out.Valid
		return el
	}
	run(nil)
	var whole, enum, check []int64
	for r := 0; r < coldHeavyReps; r++ {
		whole = append(whole, run(nil).Nanoseconds())
		tr := obs.NewTrace()
		run(tr)
		for _, ph := range tr.Summary().Phases {
			switch ph.Phase {
			case obs.PhaseEnumerate:
				enum = append(enum, ph.DurationUS*1000/576)
			case obs.PhaseCheck:
				check = append(check, ph.DurationUS*1000/576)
			}
		}
	}
	median := func(v []int64) int64 {
		if len(v) == 0 {
			t.Fatal("cold-heavy: a traced run recorded no such phase")
		}
		slices.Sort(v)
		return v[len(v)/2]
	}
	row.NsPerOp, row.EnumerateNsPerCandidate, row.CheckNsPerCandidate = median(whole), median(enum), median(check)
	return row
}

// walkRowReps is how many timed repetitions each walk row takes its
// median over. The walk alone is tens of milliseconds, short enough for
// one burst of steal on a shared runner to move a median of three: with
// the enumeration code unchanged, such records read a 2-worker speedup
// anywhere from 1.19x to 2.07x.
const walkRowReps = 7

// walkBenchRows times the co-heavy partitioned walk (a no-op consumer) at
// 1/2/4/8 workers, the median of walkRowReps repetitions after a warm-up,
// and checks each width's shard streams against the sequential hash. The
// repetitions go round-robin over the worker counts, as in
// simulateBenchRows, so interference lands on every count alike.
func walkBenchRows(t *testing.T, p *exec.Program, procs int, wantHash string, wantN int) []benchRow {
	t.Helper()
	rows := make([]benchRow, 4)
	for i, workers := range []int{1, 2, 4, 8} {
		hash, n := enumerateHash(t, workers)
		rows[i] = benchRow{Workers: workers, Procs: min(workers, procs), Candidates: n, StreamOK: hash == wantHash && n == wantN}
		if hash != wantHash {
			t.Errorf("workers=%d: stream hash %s differs from sequential %s", workers, hash, wantHash)
		}
	}
	timedSearch(t, p, 1, nil) // warm-up, billed to nobody
	reps := make([][]int64, len(rows))
	for r := 0; r < walkRowReps; r++ {
		for i := range rows {
			reps[i] = append(reps[i], timedSearch(t, p, rows[i].Workers, nil).Nanoseconds())
		}
	}
	for i := range rows {
		sort.Slice(reps[i], func(a, b int) bool { return reps[i][a] < reps[i][b] })
		rows[i].NsPerOp = reps[i][walkRowReps/2]
		rows[i].Speedup = float64(rows[0].NsPerOp) / float64(rows[i].NsPerOp)
		rows[i].Efficiency = rows[i].Speedup / float64(rows[i].Procs)
	}
	return rows
}

// TestCheckAllocsCeiling is the CI bench-smoke regression guard for the
// per-candidate allocation storm: the compiled cat Power evaluator, warm,
// must average no more than a handful of allocations per co-heavy
// candidate (the interpreter's figure is in the hundreds). The slack over
// zero covers the failed-check name slices of invalid candidates; the
// steady-state relation work itself draws entirely on the evaluator's
// pooled buffers. Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestCheckAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the allocation ceiling check")
	}
	p := compileBench(t, coHeavySrc)
	xs := collectExecutions(t, p)
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	allocs := timeChecks(t, []checkCase{{"cat:power:compiled", xs, compiled.NewEvaluator().Check}}, 3)[0].AllocsPerOp
	const ceiling = 8.0
	t.Logf("compiled cat Power: %.2f allocs per candidate (ceiling %.0f)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("compiled cat Power: %.2f allocs per candidate, ceiling %.0f — the allocation storm is back",
			allocs, ceiling)
	}
}

// simulateRow is one whole-verdict measurement of BENCH_enumerate.json:
// sim.Simulate of the co-heavy workload under compiled cat Power — the
// walk and the check, both split across the workers — at one worker count.
type simulateRow struct {
	Workers    int     `json:"workers"`
	Procs      int     `json:"procs"` // schedulable parallelism: min(workers, GOMAXPROCS)
	NsPerOp    int64   `json:"ns_per_op"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"` // speedup / procs; 1.0 = perfect scaling
	Valid      int     `json:"valid"`
	OutcomeOK  bool    `json:"outcome_identical"` // OutcomeJSON hash equals workers=1's
}

// simulateBenchRows times sim.Simulate of the co-heavy workload at 1/2/4/8
// workers, median of 3 after a warm-up that lowers the cat model once, and
// fails the test if any run's OutcomeJSON differs from workers=1's. The
// repetitions go round-robin over the worker counts, so a burst of
// interference on a shared runner lands on every count alike instead of
// on one count's whole block.
func simulateBenchRows(t *testing.T, p *exec.Program, procs int) []simulateRow {
	t.Helper()
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (time.Duration, string, int) {
		start := time.Now()
		out, err := sim.Simulate(context.Background(), sim.Request{
			Program: p, Checker: m, Options: sim.Options{Workers: workers},
		})
		el := time.Since(start)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if out.Candidates != 13824 {
			t.Fatalf("workers=%d: simulated %d candidates, want 13824", workers, out.Candidates)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return el, hex.EncodeToString(sum[:]), out.Valid
	}
	_, wantHash, _ := run(1) // warm-up and reference
	rows := make([]simulateRow, 4)
	reps := make([][]int64, len(rows))
	for i, workers := range []int{1, 2, 4, 8} {
		rows[i] = simulateRow{Workers: workers, OutcomeOK: true}
	}
	for r := 0; r < 3; r++ {
		for i := range rows {
			el, hash, valid := run(rows[i].Workers)
			reps[i] = append(reps[i], el.Nanoseconds())
			rows[i].Valid = valid
			if hash != wantHash {
				rows[i].OutcomeOK = false
				t.Errorf("workers=%d: outcome hash %s differs from workers=1 %s", rows[i].Workers, hash, wantHash)
			}
		}
	}
	for i := range rows {
		sort.Slice(reps[i], func(a, b int) bool { return reps[i][a] < reps[i][b] })
		rows[i].NsPerOp = reps[i][1]
		rows[i].Procs = min(rows[i].Workers, procs)
		rows[i].Speedup = float64(rows[0].NsPerOp) / float64(rows[i].NsPerOp)
		rows[i].Efficiency = rows[i].Speedup / float64(rows[i].Procs)
	}
	return rows
}

// simulateAllocs is the allocations of one sim.Simulate, on one worker
// under compiled cat Power, of the PPC test diy generates for cycle.
func simulateAllocs(t *testing.T, cycle string) (float64, string) {
	t.Helper()
	c, err := diy.ParseCycle(cycle)
	if err != nil {
		t.Fatal(err)
	}
	test, err := diy.Generate(litmus.PPC, c)
	if err != nil {
		t.Fatal(err)
	}
	return programAllocs(t, compileBench(t, test.String())), test.Name
}

// programAllocs is the allocations of one sim.Simulate of p, on one
// worker under compiled cat Power.
func programAllocs(t *testing.T, p *exec.Program) float64 {
	t.Helper()
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	req := sim.Request{Program: p, Checker: m}
	return testing.AllocsPerRun(100, func() {
		if _, err := sim.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSimulateAllocsCeiling is the CI bench-smoke guard on what a light
// verdict costs the allocator: on one worker sim.Simulate is one shard
// walked on the calling goroutine, and a diy-shaped PPC test
// (MP+sync+addr, four candidates) under compiled cat Power must allocate
// no more per Simulate than measured once the evaluator shared its
// FailedChecks slices (go1.24: 77; 83 once each search carved its traces
// and skeletons from pooled storage; 269 once the static
// program ran on the register machine, 321 while the interpreter ran it,
// 745 before per-test setup came off the allocator). Gated on
// BENCH_ENUM_OUT like the other bench asserts.
func TestSimulateAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the Simulate allocation ceiling check")
	}
	allocs, name := simulateAllocs(t, "SyncdWW Rfe DpAddrdR Fre")
	const ceiling = 77
	t.Logf("Simulate of %s on one worker: %.0f allocs/op (ceiling %d)", name, allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Simulate of %s on one worker: %.0f allocs/op, ceiling %d", name, allocs, ceiling)
	}
}

// TestInfeasibleAllocsCeiling is the same guard on a read-bearing shape
// whose trace combinations are mostly infeasible: 14 of the 16 of
// PodWR+SyncdRR+DpAddrdR+PodRR+Fre leave some read without a
// same-location, same-value write. The feasibility pre-check rejects
// those before anything is allocated, so a regression that assembles
// them again fails here (go1.24: 45 once the evaluator shared its
// FailedChecks slices; 49 once each search carved its traces and
// skeletons from pooled storage; 268 before, 270 while each skeleton also
// built the per-location po-loc edges of SC-per-location pruning, 296
// while the interpreter ran the static program, 515 with the pre-check
// taken out, 1609 before per-test setup came off the allocator). Gated on
// BENCH_ENUM_OUT like the other bench asserts.
func TestInfeasibleAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the infeasible-heavy allocation ceiling check")
	}
	allocs, name := simulateAllocs(t, "PodWR SyncdRR DpAddrdR PodRR Fre")
	const ceiling = 45
	t.Logf("Simulate of %s on one worker: %.0f allocs/op (ceiling %d)", name, allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Simulate of %s on one worker: %.0f allocs/op, ceiling %d", name, allocs, ceiling)
	}
}

// TestColdHeavyAllocsCeiling is the same guard on the cold-heavy shape,
// where the allocations that scale with the candidate count show: one
// Simulate of its 576 candidates on one worker under compiled cat Power
// (go1.24: 639 once the evaluator shared one FailedChecks slice per set
// of failed checks; 971 while it built one per invalid candidate).
// Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestColdHeavyAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the cold-heavy allocation ceiling check")
	}
	allocs := programAllocs(t, compileBench(t, coldHeavySrc))
	const ceiling = 639
	t.Logf("Simulate of the cold-heavy shape on one worker: %.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Simulate of the cold-heavy shape on one worker: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}

// enumRow is one enumeration-cost measurement of BENCH_enumerate.json:
// the bare walk (candidates fully derived, consumed in place, discarded),
// with the allocator and GC accounted per candidate. This is the cost the
// arena refactor targets; the scaling rows above time the same walk but
// only report wall clock.
type enumRow struct {
	Workers        int     `json:"workers"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	GCPauseTotalNs uint64  `json:"gc_pause_total_ns"`
}

// enumBench measures the bare co-heavy walk: best-of-3 wall clock with the
// allocation and GC-pause deltas of the best run. A warm-up search runs
// first so one-time costs (trace enumeration scratch, the first search's
// arena growth are per-search either way, but the allocator's own warmup
// is not) don't inflate the first repetition.
func enumBench(tb testing.TB, p *exec.Program, workers int) enumRow {
	tb.Helper()
	timedSearch(tb, p, workers, nil)
	var best int64
	var allocsPerOp float64
	var gcPause uint64
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		n, err := countShards(p, exec.Request{Workers: workers})
		el := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			tb.Fatal(err)
		}
		if n != 13824 {
			tb.Fatalf("enumerated %d candidates, want 13824", n)
		}
		if rep == 0 || el < best {
			best = el
			allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
			gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
		}
	}
	return enumRow{Workers: workers, NsPerOp: best / 13824, AllocsPerOp: allocsPerOp, GCPauseTotalNs: gcPause}
}

// TestEnumAllocsCeiling is the CI bench-smoke regression guard for the
// enumeration side of the allocation discipline: the warm sequential walk
// must average no more than a handful of allocations per candidate. The
// steady state is the per-emit Candidate header (one small allocation,
// deliberate — it carries the expiry generation) plus amortised per-search
// setup; the relations, final state and dynamic derivation all live in the
// search's arena. Gated on BENCH_ENUM_OUT like the other bench asserts.
func TestEnumAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the enumeration allocation ceiling check")
	}
	p := compileBench(t, coHeavySrc)
	row := enumBench(t, p, 1)
	const ceiling = 8.0
	if row.AllocsPerOp > ceiling {
		t.Errorf("sequential walk: %.2f allocs per candidate, ceiling %.0f — the enumeration allocation storm is back",
			row.AllocsPerOp, ceiling)
	}
}

// checkRow is one model-checking measurement of BENCH_enumerate.json:
// one checker driven over every pre-derived co-heavy candidate on a single
// core, with the allocator and GC accounted per candidate.
type checkRow struct {
	Checker        string  `json:"checker"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	GCPauseTotalNs uint64  `json:"gc_pause_total_ns"`
}

// collectExecutions enumerates the workload once and keeps every derived
// candidate execution, so checker timings below measure checking alone —
// no enumeration, no rf/co picking, no dynamic derivation. The yielded
// candidates live in the search's arena slot, so retention requires Clone.
func collectExecutions(tb testing.TB, p *exec.Program) []*events.Execution {
	tb.Helper()
	var xs []*events.Execution
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		xs = append(xs, c.Clone().X)
		return true
	})
	if err != nil {
		tb.Fatal(err)
	}
	return xs
}

// checkRowReps is how many timed passes each check row takes its median
// over. The passes go round-robin over the checkers, as in
// simulateBenchRows: a best-of-3 per checker read the zoo row anywhere
// from 10.6 to 13.2 µs on identical code.
const checkRowReps = 5

// checkCase is one checker and the executions it is timed over.
type checkCase struct {
	name  string
	xs    []*events.Execution
	check func(*events.Execution) core.Result
}

// timeChecks times each case over its executions: every checker is warmed
// first so one-time work (static binding, lazy model lowering, arena
// growth) isn't billed to the steady state, then reps passes go
// round-robin over the cases. A row reports the median pass per
// execution, with that pass's allocation and GC-pause deltas.
func timeChecks(tb testing.TB, cases []checkCase, reps int) []checkRow {
	tb.Helper()
	for _, c := range cases {
		for _, x := range c.xs[:min(len(c.xs), 64)] {
			c.check(x)
		}
	}
	type pass struct {
		ns     int64
		allocs float64
		pause  uint64
	}
	passes := make([][]pass, len(cases))
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		for i, c := range cases {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for _, x := range c.xs {
				c.check(x)
			}
			el := time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			passes[i] = append(passes[i], pass{el, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(c.xs)), ms1.PauseTotalNs - ms0.PauseTotalNs})
		}
	}
	rows := make([]checkRow, len(cases))
	for i, c := range cases {
		ps := passes[i]
		sort.Slice(ps, func(a, b int) bool { return ps[a].ns < ps[b].ns })
		med := ps[len(ps)/2]
		rows[i] = checkRow{Checker: c.name, NsPerOp: med.ns / int64(len(c.xs)), AllocsPerOp: med.allocs, GCPauseTotalNs: med.pause}
	}
	return rows
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// checkBenchRows measures the per-candidate cost of the checking layer
// itself on the co-heavy candidates: the cat Power model through the AST
// interpreter (the old per-candidate path) and through the compiled
// evaluator, plus the hand-written Power model through its arena evaluator.
// The interpreted/compiled pair is the before/after of the allocation-storm
// fix; their ratios are recorded alongside the raw rows. co-heavy writes
// and never reads, so a last row times compiled Power on the candidates
// of a read-bearing catalogue shape, mp+lwsync+addr-bigdetour-addr.
const readBearing = "mp+lwsync+addr-bigdetour-addr"

func checkBenchRows(tb testing.TB, p *exec.Program) (rows []checkRow, speedup, allocRatio float64) {
	tb.Helper()
	xs := collectExecutions(tb, p)
	m, err := cat.Builtin("power")
	if err != nil {
		tb.Fatal(err)
	}
	compiled, err := m.Compiled()
	if err != nil {
		tb.Fatal(err)
	}
	rb, ok := catalog.ByName(readBearing)
	if !ok {
		tb.Fatalf("catalogue has no %s", readBearing)
	}
	rows = timeChecks(tb, []checkCase{
		{"cat:power:interpreted", xs, m.Interpreted().Check},
		{"cat:power:compiled", xs, compiled.NewEvaluator().Check},
		{"models:power:arena", xs, models.Power.NewEvaluator().Check},
		{"cat:power:compiled:" + readBearing, collectExecutions(tb, compileBench(tb, rb.Source)), compiled.NewEvaluator().Check},
	}, checkRowReps)
	interp, comp := rows[0], rows[1]
	speedup = float64(interp.NsPerOp) / float64(comp.NsPerOp)
	den := comp.AllocsPerOp
	if den < 0.01 {
		den = 0.01 // a fully allocation-free run would divide by zero
	}
	allocRatio = interp.AllocsPerOp / den
	return rows, speedup, allocRatio
}

// obsOverhead interleaves sequential enumerations with the sink off and on
// and returns the minimum of each. Two choices keep the estimate honest on
// a noisy, time-shared runner (where run-to-run wall clock swings far more
// than the few atomics the sink costs). The pair order alternates per
// repetition: with a fixed off-then-on order, every on-run is warmer than
// its partner, which biased earlier records negative. And the estimator is
// the minimum, not the median: external interference only ever adds time,
// so the least-interfered run of each mode is the best estimate of its
// true cost — medians of oscillating interference produced overheads like
// -21% that say nothing about the instrumentation.
func obsOverhead(t *testing.T, p *exec.Program) (offMin, onMin int64) {
	t.Helper()
	const reps = 6
	var off, on []int64
	sink := &obs.EnumStats{}
	timedSearch(t, p, 1, nil) // warm-up, billed to nobody
	for r := 0; r < reps; r++ {
		if r%2 == 0 {
			off = append(off, timedSearch(t, p, 1, nil).Nanoseconds())
			on = append(on, timedSearch(t, p, 1, sink).Nanoseconds())
		} else {
			on = append(on, timedSearch(t, p, 1, sink).Nanoseconds())
			off = append(off, timedSearch(t, p, 1, nil).Nanoseconds())
		}
	}
	sort.Slice(off, func(i, j int) bool { return off[i] < off[j] })
	sort.Slice(on, func(i, j int) bool { return on[i] < on[j] })
	return off[0], on[0]
}

// traceOverhead times one-worker sim.Simulate of the cold-heavy shape
// under compiled cat Power, untraced and traced (a fresh obs.Trace each
// run), in pairs whose order alternates, and returns the median of each.
// This is the cost a trace adds to a verdict: the phase spans and the
// sampled check timing of every shard.
func traceOverhead(t *testing.T, p *exec.Program) (offMed, onMed time.Duration) {
	t.Helper()
	const reps = 41
	m, err := cat.Builtin("power")
	if err != nil {
		t.Fatal(err)
	}
	run := func(traced bool) time.Duration {
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace()
		}
		start := time.Now()
		if _, err := sim.Simulate(context.Background(), sim.Request{Program: p, Checker: m, Obs: tr}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(false) // warm-up, billed to nobody
	var off, on []time.Duration
	for r := 0; r < reps; r++ {
		if r%2 == 0 {
			off = append(off, run(false))
			on = append(on, run(true))
		} else {
			on = append(on, run(true))
			off = append(off, run(false))
		}
	}
	slices.Sort(off)
	slices.Sort(on)
	return off[reps/2], on[reps/2]
}

// TestObsOverheadSmoke is the CI bench-smoke assertion: enabling the
// enumeration counters must not slow the sequential co-heavy search by
// more than 20% (the engine accumulates privately and flushes once per
// search, so the true cost is a handful of atomics per run — the margin
// is noise allowance, not a real budget). A no-op consumer cannot see
// what a trace costs the checking side, so the smoke also times a traced
// one-worker Simulate of the cold-heavy shape against an untraced one:
// the medians may differ by at most 10%. A trace reads the clock a few
// times per shard and on a sample of the checks, so its true cost is
// well under that; the margin is noise allowance again. Gated on
// BENCH_ENUM_OUT like the JSON record so ordinary test runs stay fast.
func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the overhead smoke")
	}
	p := compileBench(t, coHeavySrc)
	timedSearch(t, p, 1, nil) // warm-up
	offMed, onMed := obsOverhead(t, p)
	if ratio := float64(onMed) / float64(offMed); ratio > 1.20 {
		t.Errorf("instrumented search %.2fx slower than nil-sink (off %v, on %v)",
			ratio, time.Duration(offMed), time.Duration(onMed))
	}
	off, on := traceOverhead(t, compileBench(t, coldHeavySrc))
	ratio := float64(on) / float64(off)
	t.Logf("cold-heavy Simulate, one worker: untraced %v, traced %v (median of 41 each): %.3fx", off, on, ratio)
	if ratio > 1.10 {
		t.Errorf("traced cold-heavy Simulate %.2fx slower than untraced (medians %v, %v)", ratio, on, off)
	}
}
