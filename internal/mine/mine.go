// Package mine is the continuous differential-mining engine over the model
// zoo: the paper's "data-mining" leg (Tab. IX–XII) run as a standing
// service instead of a one-shot table. A campaign sweeps the diy cycle
// space — exhaustively up to a size bound, then by seeded replayable
// sampling beyond it — generates a litmus test from every cycle, runs each
// test through the expected-agreement table of decider pairs
// (internal/crosscheck), and persists every verdict content-addressed in
// an append-only journal so a restarted campaign resumes instead of
// recomputing. Any violated expectation is auto-minimized to a smallest
// witness cycle (drop/weaken edges, re-checking each step) and emitted as
// a .litmus file plus a JSON discrepancy record.
//
// The paper grounds which pairs must agree (Thm. 7.1, Fig. 38, the SAT
// encodings, the monotonicity and hardware-soundness inclusions), so a
// disagreement is a real engine bug — the daemon is the regression
// tripwire under the enumeration-speed work, not a fuzzer.
package mine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
)

// Config tunes a mining campaign.
type Config struct {
	// Arch selects the litmus dialect generated tests use and, through
	// the default Pairs table, which deciders cross-check them.
	Arch litmus.Arch

	// Pool is the edge pool cycles are built from (default: the standard
	// pool for Arch).
	Pool []diy.Edge

	// ExhaustiveMax bounds the exhaustive sweep: every cycle of length
	// 2..ExhaustiveMax is enumerated (default 3).
	ExhaustiveMax int

	// SampleSizes are the cycle lengths drawn by the seeded sampler once
	// the exhaustive sweep is done; empty keeps the sweep purely
	// exhaustive.
	SampleSizes []int

	// Seed drives the sampler; the whole corpus is a pure function of
	// (Pool, ExhaustiveMax, SampleSizes, Seed).
	Seed uint64

	// MaxTests bounds how many distinct tests this run processes,
	// counting both freshly checked and store-resumed ones (0 = run until
	// the generator dries up or ctx is canceled).
	MaxTests int

	// Workers bounds how many tests are cross-checked concurrently
	// (<= 0 selects GOMAXPROCS).
	Workers int

	// Batch is how many generated tests are queued before the worker
	// pool drains them (default 64).
	Batch int

	// Pairs is the expected-agreement table to sweep (default
	// crosscheck.Pairs(Arch)).
	Pairs []crosscheck.Pair

	// Store, when non-nil, persists every verdict and serves repeats —
	// the resume path. A nil store mines statelessly.
	Store *Store

	// OutDir, when non-empty, receives the minimized witness .litmus
	// files and JSON discrepancy records under OutDir/discrepancies.
	OutDir string

	// Reg, when non-nil, exposes the mine_* metric families on it.
	Reg *obs.Registry
}

// Summary reports what one Run did.
type Summary struct {
	// Tests processed this run = Checked (fresh) + ResumeHits (served
	// from the store without recomputation).
	Tests      int `json:"tests"`
	Checked    int `json:"checked"`
	ResumeHits int `json:"resume_hits"`

	// Pair-level outcomes of the fresh checks.
	PairsChecked  int `json:"pairs_checked"`
	Agreements    int `json:"agreements"`
	Disagreements int `json:"disagreements"`
	DeciderErrors int `json:"decider_errors"`

	// Minimization work: witnesses emitted and oracle invocations spent.
	Witnesses     int `json:"witnesses"`
	MinimizeSteps int `json:"minimize_steps"`

	// GenerateRejects counts cycles diy refused to realise.
	GenerateRejects int `json:"generate_rejects"`

	// CorpusSize is the store's distinct-key count after the run (0
	// without a store).
	CorpusSize int `json:"corpus_size"`

	ElapsedMS int64 `json:"elapsed_ms"`
}

// Miner runs mining campaigns. Create with New; one Miner may Run several
// campaigns (the counters are cumulative; Run reports per-run deltas).
type Miner struct {
	cfg   Config
	pairs []crosscheck.Pair

	tests         obs.Counter
	resumeHits    obs.Counter
	pairsChecked  obs.Counter
	agreements    obs.Counter
	disagreements obs.Counter
	deciderErrs   obs.Counter
	witnesses     obs.Counter
	minSteps      obs.Counter
	genRejects    obs.Counter

	pairChecked   map[string]*obs.Counter
	pairDisagreed map[string]*obs.Counter
}

// New builds a miner over cfg with its defaults filled in and, when
// cfg.Reg is set, registers the mine_* metric families on it.
func New(cfg Config) (*Miner, error) {
	if cfg.Arch == "" {
		cfg.Arch = litmus.PPC
	}
	switch {
	case cfg.Pool != nil:
	case cfg.Arch == litmus.ARM:
		cfg.Pool = diy.ARMPool()
	case cfg.Arch == litmus.X86:
		cfg.Pool = diy.X86Pool()
	default:
		cfg.Pool = diy.PowerPool()
	}
	if cfg.ExhaustiveMax <= 0 {
		cfg.ExhaustiveMax = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	m := &Miner{cfg: cfg, pairs: cfg.Pairs}
	if m.pairs == nil {
		m.pairs = crosscheck.Pairs(cfg.Arch)
	}
	if len(m.pairs) == 0 {
		return nil, fmt.Errorf("mine: no decider pairs for arch %s", cfg.Arch)
	}
	m.pairChecked = map[string]*obs.Counter{}
	m.pairDisagreed = map[string]*obs.Counter{}
	for _, p := range m.pairs {
		name := p.String()
		if _, dup := m.pairChecked[name]; dup {
			return nil, fmt.Errorf("mine: duplicate pair %s", name)
		}
		m.pairChecked[name] = &obs.Counter{}
		m.pairDisagreed[name] = &obs.Counter{}
	}
	m.register(cfg.Reg)
	return m, nil
}

// Pairs returns the expected-agreement table this miner sweeps.
func (m *Miner) Pairs() []crosscheck.Pair { return m.pairs }

// unit is one generated test queued for cross-checking.
type unit struct {
	cycle diy.Cycle
	test  *litmus.Test
	key   string
}

// Run executes one campaign: enumerate, sample, cross-check, persist,
// minimize. It returns when the generator dries up, MaxTests is reached,
// or ctx is canceled (partial summary, error context.Canceled). A store
// or artifact write failure aborts the run with its error.
func (m *Miner) Run(ctx context.Context) (*Summary, error) {
	start := time.Now()
	before := m.snapshot()

	var (
		batch     []unit
		processed int
		runErr    error
		seen      = map[string]bool{}
	)
	flush := func() {
		if len(batch) == 0 || runErr != nil {
			return
		}
		units := batch
		batch = nil
		err := campaign.ForEach(ctx, m.cfg.Workers, len(units), func(ctx context.Context, i int) error {
			return m.check(ctx, units[i])
		})
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	emit := func(c diy.Cycle) bool {
		if ctx.Err() != nil || runErr != nil {
			return false
		}
		test, err := diy.Generate(m.cfg.Arch, c)
		if err != nil {
			m.genRejects.Inc()
			return true
		}
		key := Key(test, m.pairs)
		if seen[key] {
			return true // the sampler can re-draw an exhaustively-enumerated cycle
		}
		seen[key] = true
		batch = append(batch, unit{cycle: c, test: test, key: key})
		processed++
		if len(batch) >= m.cfg.Batch {
			flush()
		}
		return m.cfg.MaxTests == 0 || processed < m.cfg.MaxTests
	}

	diy.Enumerate(m.cfg.Pool, 2, m.cfg.ExhaustiveMax, emit)
	if sizes := m.cfg.SampleSizes; len(sizes) > 0 && runErr == nil && ctx.Err() == nil &&
		(m.cfg.MaxTests == 0 || processed < m.cfg.MaxTests) {
		diy.Sample(m.cfg.Pool, sizes, m.cfg.Seed, emit)
	}
	flush()

	sum := m.snapshot()
	sum.Tests -= before.Tests
	sum.ResumeHits -= before.ResumeHits
	sum.PairsChecked -= before.PairsChecked
	sum.Agreements -= before.Agreements
	sum.Disagreements -= before.Disagreements
	sum.DeciderErrors -= before.DeciderErrors
	sum.Witnesses -= before.Witnesses
	sum.MinimizeSteps -= before.MinimizeSteps
	sum.GenerateRejects -= before.GenerateRejects
	sum.Checked = sum.Tests - sum.ResumeHits
	sum.ElapsedMS = time.Since(start).Milliseconds()
	if m.cfg.Store != nil {
		sum.CorpusSize = m.cfg.Store.Len()
	}
	if runErr != nil {
		return &sum, runErr
	}
	return &sum, ctx.Err()
}

// check cross-checks one unit: resume from the store when possible,
// otherwise run the pair table, persist the record and minimize any
// disagreement.
func (m *Miner) check(ctx context.Context, u unit) error {
	if m.cfg.Store != nil {
		if _, ok := m.cfg.Store.Get(u.key); ok {
			m.tests.Inc()
			m.resumeHits.Inc()
			return nil
		}
	}
	rep, err := crosscheck.ComparePairs(ctx, u.test, m.pairs...)
	if err != nil {
		return err
	}
	m.tests.Inc()
	m.pairsChecked.Add(rep.Pairs)
	m.agreements.Add(rep.Agreements)
	m.disagreements.Add(len(rep.Disagreements))
	m.deciderErrs.Add(len(rep.Errors))

	for _, p := range m.pairs {
		if !slices.ContainsFunc(rep.Errors, func(v crosscheck.Verdict) bool {
			return v.Decider == p.A.Name() || v.Decider == p.B.Name()
		}) {
			m.pairChecked[p.String()].Inc()
		}
	}
	for _, d := range rep.Disagreements {
		m.pairDisagreed[d.Pair].Inc()
	}

	if m.cfg.Store != nil {
		if err := m.cfg.Store.Put(&Record{
			Key:           u.key,
			Test:          u.test.Name,
			Cycle:         u.cycle.Name(),
			Pairs:         rep.Pairs,
			Agreements:    rep.Agreements,
			Disagreements: len(rep.Disagreements),
			Verdicts:      rep.Verdicts,
		}); err != nil {
			return err
		}
	}
	for _, d := range rep.Disagreements {
		if err := m.minimize(ctx, u, d); err != nil {
			return err
		}
	}
	return nil
}

// Discrepancy is the JSON record emitted next to a minimized witness —
// the machine-readable bug report of one violated pair expectation
// (schema documented in DESIGN.md §11).
type Discrepancy struct {
	Schema         string             `json:"schema"`
	Key            string             `json:"key"`
	Pair           string             `json:"pair"`
	Relation       string             `json:"relation"`
	Why            string             `json:"why,omitempty"`
	A              crosscheck.Verdict `json:"a"`
	B              crosscheck.Verdict `json:"b"`
	Cycle          string             `json:"cycle"`
	MinimizedCycle string             `json:"minimized_cycle"`
	Events         int                `json:"events"`
	MinimizeSteps  int                `json:"minimize_steps"`
	Litmus         string             `json:"litmus"`
}

// minimize shrinks the disagreeing cycle to a smallest witness and writes
// the artifacts. The pair is re-resolved by name so the oracle re-checks
// exactly the violated expectation at every shrink step.
func (m *Miner) minimize(ctx context.Context, u unit, d crosscheck.Disagreement) error {
	i := slices.IndexFunc(m.pairs, func(p crosscheck.Pair) bool { return p.String() == d.Pair })
	if i < 0 {
		return fmt.Errorf("mine: disagreement on unknown pair %s", d.Pair)
	}
	// The oracle is the comparison over the one pair. It captures the
	// verdicts of the last reproducing test, so the record reports the
	// minimized witness's verdicts, not the original's.
	lastA, lastB := d.A, d.B
	oracle := func(ctx context.Context, t *litmus.Test) (bool, error) {
		rep, err := crosscheck.ComparePairs(ctx, t, m.pairs[i])
		switch {
		case err != nil:
			return false, err
		case len(rep.Errors) > 0:
			return false, fmt.Errorf("mine: %s failed: %s", rep.Errors[0].Decider, rep.Errors[0].Err)
		case len(rep.Disagreements) == 0:
			return false, nil
		}
		lastA, lastB = rep.Disagreements[0].A, rep.Disagreements[0].B
		return true, nil
	}
	minCycle, minTest, steps, ok, err := Minimize(ctx, m.cfg.Arch, u.cycle, oracle)
	m.minSteps.Add(steps)
	if err != nil {
		return err
	}
	if !ok {
		// The disagreement did not reproduce outside the comparison run
		// (a nondeterministic decider); keep the original as the witness.
		minCycle, minTest = u.cycle, u.test
	}
	m.witnesses.Inc()

	if m.cfg.OutDir == "" {
		return nil
	}
	rec := Discrepancy{
		Schema:         "mine/discrepancy/v1",
		Key:            u.key,
		Pair:           d.Pair,
		Relation:       d.Rel,
		Why:            d.Why,
		A:              lastA,
		B:              lastB,
		Cycle:          u.cycle.Name(),
		MinimizedCycle: minCycle.Name(),
		Events:         len(minCycle),
		MinimizeSteps:  steps,
		Litmus:         minTest.String(),
	}
	dir := filepath.Join(m.cfg.OutDir, "discrepancies")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, sanitize(u.test.Name)+"-"+u.key[:12])
	if err := os.WriteFile(base+".litmus", []byte(minTest.String()), 0o644); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(data, '\n'), 0o644)
}

// sanitize maps a test name to a safe file-name fragment.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '+', r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// snapshot reads the cumulative counters, whose change Run reports.
func (m *Miner) snapshot() Summary {
	return Summary{
		Tests:           int(m.tests.Value()),
		ResumeHits:      int(m.resumeHits.Value()),
		PairsChecked:    int(m.pairsChecked.Value()),
		Agreements:      int(m.agreements.Value()),
		Disagreements:   int(m.disagreements.Value()),
		DeciderErrors:   int(m.deciderErrs.Value()),
		Witnesses:       int(m.witnesses.Value()),
		MinimizeSteps:   int(m.minSteps.Value()),
		GenerateRejects: int(m.genRejects.Value()),
	}
}
