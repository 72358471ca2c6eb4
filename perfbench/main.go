// Command perfbench is herdcats' end-to-end and per-layer benchmark. It
// runs one seeded workload against in-process herdd, herd-gw or mined
// built from this checkout, checks every verdict against an independent
// reference, and prints its metrics as one JSON object on the last line of
// standard output. See README.md in this directory for the workloads, the
// metrics and how to read them; run.py builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// endToEnd and perLayer are the metric tables: name → unit. A run with
// tracing off reports every endToEnd metric, a traced run every perLayer
// one, so both tables must match BENCHMARK.json. latency_tail_ms is
// printed on a # line but is not in the table: no workload's tail held
// still from run to run on a shared host (see README.md).
var endToEnd = map[string]string{
	"setup_s":        "s",
	"verdicts_per_s": "1/s",
	"latency_p50_ms": "ms",
	"peak_rss_mb":    "MB",
}

var perLayer = map[string]string{
	"litmus.parse_us":                 "us",
	"exec.compile_us":                 "us",
	"exec.enumerate_us":               "us",
	"exec.enumerate_ns_per_candidate": "ns",
	"exec.candidates_per_test":        "count",
	"cat.bind_us":                     "us",
	"cat.check_ns_per_candidate":      "ns",
	"sim.simulate_us":                 "us",
	"sim.self_us":                     "us",
	"sim.valid_ratio":                 "ratio",
	"memo.overhead_us":                "us",
	"memo.key_us":                     "us",
	"memo.lookup_us":                  "us",
	"memo.hit_ratio":                  "ratio",
	"serve.run_handler_us":            "us",
	"serve.batch_stream_ms":           "ms",
	"serve.shed_ratio":                "ratio",
	"http.loopback_us":                "us",
	"wire.encode_us_per_frame":        "us",
	"wire.decode_us_per_frame":        "us",
	"fleet.gw_hop_ms":                 "ms",
	"fleet.retries":                   "count",
	"diy.generate_us":                 "us",
	"bmc.encode_us":                   "us",
	"sat.solve_us":                    "us",
	"mine.disagreements":              "count",
	"process.cpu_ms_per_verdict":      "ms",
	"process.gc_cpu_frac":             "ratio",
	"process.gc_pause_ms":             "ms",
	"trace.unattributed_frac":         "ratio",
	"trace.overhead_frac":             "ratio",
}

func init() {
	for _, d := range deciderMetrics {
		perLayer[d.metric] = "us"
	}
}

var workloads = []string{"cold-light", "cold-heavy", "warm-gw-batch", "mine-ppc"}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of cold-light, cold-heavy, warm-gw-batch, mine-ppc")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives byte-identical inputs")
	seconds := flag.Int("seconds", 15, "run length; the request count is a fixed rate times this")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger instead")
	outDir := flag.String("out", ".bench_build", "directory for the traced run's span file")
	setupChild := flag.Bool("setup-child", false, "build the workload's environment once, print its set-up time and exit (used by the run itself)")
	flag.Parse()
	if *setupChild {
		c, err := setupOnce(*workload, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *workload, err)
			os.Exit(1)
		}
		out, _ := json.Marshal(c) // a struct of floats always marshals
		fmt.Println(string(out))
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := run(*workload, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	table := endToEnd
	if *trace == 1 {
		table = perLayer
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricOut{}}
	for name, unit := range table {
		v, ok := res.metrics[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *workload, name)
			os.Exit(1)
		}
		rep.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-40s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(workload string, seed uint64, seconds int, trace bool, outDir string) (*result, error) {
	// setup runs the set-up processes of an untraced run; the traced run
	// reports no setup_s.
	setup := func() (setupTimes, error) { return setupChildren(workload, seed) }
	switch workload {
	case "cold-light", "cold-heavy":
		in, err := coldInputsFor(workload, seed, seconds)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# corpus %s: %d warm-up + %d timed tests, sha256 %s\n",
			workload, len(in.warm), len(in.timed), corpusHash(append(append([]string{}, in.warm...), in.timed...)))
		if trace {
			return ledgerCold(workload, seed, in, outDir)
		}
		st, err := setup()
		if err != nil {
			return nil, err
		}
		return runCold(in, st)
	case "warm-gw-batch":
		in, err := warmGWInputs(seed, seconds)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# corpus %s: %d tests, %d warm-up + %d timed batches of %d, sha256 %s\n",
			workload, len(in.corpus), len(in.warm), len(in.timed), warmBatchRows, corpusHash(in.corpus))
		if trace {
			return ledgerWarm(seed, in, outDir)
		}
		st, err := setup()
		if err != nil {
			return nil, err
		}
		return runWarmGW(in, st)
	case "mine-ppc":
		in := minePPCInputs(seed, seconds)
		fmt.Printf("# corpus %s: seed %d, sample sizes %v, %d tests (warm-up seed %d, %d tests)\n",
			workload, in.timed.Seed, in.timed.SampleSizes, in.timed.MaxTests, in.warm.Seed, in.warm.MaxTests)
		if trace {
			return ledgerMine(seed, in, outDir)
		}
		st, err := setup()
		if err != nil {
			return nil, err
		}
		return runMine(in, st)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}
