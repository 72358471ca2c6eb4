package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The canonical phase names of one simulation run, in pipeline order.
// Callers may record additional phases; Summary orders known phases first.
// The phases are exclusive: enumerate is the candidate walk alone and
// check the model checker alone, so on one worker the phases add up to
// the run's wall clock. A verdict split across workers records enumerate
// and check as busy time summed over its shards — CPU time, which can
// exceed the wall clock by up to the worker count.
const (
	PhaseParse     = "parse"
	PhaseCompile   = "compile"
	PhaseEnumerate = "enumerate"
	PhaseCheck     = "check"
	PhaseVerdict   = "verdict"
)

// phaseOrder ranks the canonical phases for deterministic summaries.
var phaseOrder = map[string]int{
	PhaseParse:     0,
	PhaseCompile:   1,
	PhaseEnumerate: 2,
	PhaseCheck:     3,
	PhaseVerdict:   4,
}

// EnumStats collects the counters one (or many) enumerations report:
// candidates yielded and how the sharded parallel search spread its work.
// All methods are nil-safe and safe for concurrent use; the engine
// accumulates privately and flushes per shard, so the hot walk never
// touches an atomic.
type EnumStats struct {
	candidates  atomic64
	shardsBuilt atomic64
	shardsRun   atomic64
	workers     atomic64 // high-water worker count of any single enumeration
}

// atomic64 aliases the counter implementation so EnumStats stays compact.
type atomic64 = Counter

// AddCandidates records n candidates yielded.
func (s *EnumStats) AddCandidates(n int) {
	if s == nil {
		return
	}
	s.candidates.Add(n)
}

// AddShardsBuilt records n shards partitioned for a parallel search.
func (s *EnumStats) AddShardsBuilt(n int) {
	if s == nil {
		return
	}
	s.shardsBuilt.Add(n)
}

// AddShardsRun records n shards actually claimed and walked. Together with
// AddShardsBuilt this measures shard utilisation: a search stopped early
// (budget, cancellation) leaves built-but-never-run shards behind.
func (s *EnumStats) AddShardsRun(n int) {
	if s == nil {
		return
	}
	s.shardsRun.Add(n)
}

// SetWorkers records the worker count of one enumeration, keeping the
// high-water mark across merged enumerations.
func (s *EnumStats) SetWorkers(n int) {
	if s == nil || n <= 0 {
		return
	}
	for {
		cur := s.workers.Value()
		if uint64(n) <= cur {
			return
		}
		if s.workers.v.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// Merge folds a snapshot into s (for per-request stats rolling up into a
// process-wide aggregate).
func (s *EnumStats) Merge(snap EnumSnapshot) {
	if s == nil {
		return
	}
	s.candidates.v.Add(snap.Candidates)
	s.shardsBuilt.v.Add(snap.ShardsBuilt)
	s.shardsRun.v.Add(snap.ShardsRun)
	s.SetWorkers(int(snap.Workers))
}

// EnumSnapshot is the JSON-ready copy of an EnumStats.
type EnumSnapshot struct {
	Candidates  uint64 `json:"candidates"`
	ShardsBuilt uint64 `json:"shards_built,omitempty"`
	ShardsRun   uint64 `json:"shards_run,omitempty"`
	Workers     uint64 `json:"workers,omitempty"`
}

// Add folds another snapshot into s: counters sum, Workers keeps the
// high-water mark. Used when aggregating per-job snapshots into a report.
func (s *EnumSnapshot) Add(o EnumSnapshot) {
	s.Candidates += o.Candidates
	s.ShardsBuilt += o.ShardsBuilt
	s.ShardsRun += o.ShardsRun
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// PhaseTotals is a batch's fold of its tests' traces, as a campaign report
// and a summary/v1 frame carry it: each phase's duration summed in
// microseconds, and the enumeration counters summed. Both stay nil until
// something is folded in, so an untraced batch renders neither.
type PhaseTotals struct {
	PhaseTotalsUS map[string]int64 `json:"phase_totals_us,omitempty"`
	Enum          *EnumSnapshot    `json:"enum,omitempty"`
}

// Fold adds phase spans and enumeration counters (nil adds none) into
// the totals, making each total on first use.
func (t *PhaseTotals) Fold(spans []PhaseSpan, enum *EnumSnapshot) {
	for _, ph := range spans {
		if t.PhaseTotalsUS == nil {
			t.PhaseTotalsUS = map[string]int64{}
		}
		t.PhaseTotalsUS[ph.Phase] += ph.DurationUS
	}
	if enum == nil {
		return
	}
	if t.Enum == nil {
		t.Enum = &EnumSnapshot{}
	}
	t.Enum.Add(*enum)
}

// Snapshot copies the counters (zero value for nil).
func (s *EnumStats) Snapshot() EnumSnapshot {
	if s == nil {
		return EnumSnapshot{}
	}
	return EnumSnapshot{
		Candidates:  s.candidates.Value(),
		ShardsBuilt: s.shardsBuilt.Value(),
		ShardsRun:   s.shardsRun.Value(),
		Workers:     s.workers.Value(),
	}
}

// Trace records one run's per-phase wall clock and enumeration counters.
// Phases accumulate: observing the same phase twice (a split measurement)
// sums the durations. A nil Trace ignores everything, so callers thread
// traces down unconditionally. Safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	phases map[string]time.Duration
	enum   EnumStats
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Enum returns the trace's enumeration-counter sink (nil for a nil trace),
// ready to hand to the engine.
func (t *Trace) Enum() *EnumStats {
	if t == nil {
		return nil
	}
	return &t.enum
}

// Phase starts timing a phase and returns the function that stops the
// clock and records the span. Use as `defer tr.Phase(obs.PhaseCompile)()`
// or stop explicitly. Nil-safe: a nil trace returns a no-op stop.
func (t *Trace) Phase(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Observe(name, time.Since(start)) }
}

// Observe adds a measured duration to a phase.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.phases == nil {
		t.phases = map[string]time.Duration{}
	}
	t.phases[name] += d
	t.mu.Unlock()
}

// PhaseSpan is one row of a trace summary.
type PhaseSpan struct {
	Phase      string `json:"phase"`
	DurationUS int64  `json:"duration_us"`
}

// TraceJSON is the deterministic wire form of a trace: canonical phases in
// pipeline order, any extra phases after them alphabetically, then the
// enumeration counters.
type TraceJSON struct {
	Phases []PhaseSpan  `json:"phases"`
	Enum   EnumSnapshot `json:"enum"`
}

// Summary renders the trace for a response or report (nil for a nil or
// empty trace with no counters).
func (t *Trace) Summary() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]PhaseSpan, 0, len(t.phases))
	for name, d := range t.phases {
		spans = append(spans, PhaseSpan{Phase: name, DurationUS: d.Microseconds()})
	}
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		ri, iKnown := phaseOrder[spans[i].Phase]
		rj, jKnown := phaseOrder[spans[j].Phase]
		switch {
		case iKnown && jKnown:
			return ri < rj
		case iKnown != jKnown:
			return iKnown
		default:
			return spans[i].Phase < spans[j].Phase
		}
	})
	enum := t.enum.Snapshot()
	if len(spans) == 0 && enum == (EnumSnapshot{}) {
		return nil
	}
	return &TraceJSON{Phases: spans, Enum: enum}
}

// String renders the summary as an aligned text table (empty for nil).
func (j *TraceJSON) String() string {
	if j == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range j.Phases {
		fmt.Fprintf(&b, "  %-10s %12s\n", s.Phase, time.Duration(s.DurationUS)*time.Microsecond)
	}
	fmt.Fprintf(&b, "  %-10s %12d\n", "candidates", j.Enum.Candidates)
	if j.Enum.ShardsBuilt > 0 {
		fmt.Fprintf(&b, "  %-10s %12d/%d (workers %d)\n", "shards",
			j.Enum.ShardsRun, j.Enum.ShardsBuilt, j.Enum.Workers)
	}
	return b.String()
}
