package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"herdcats/internal/events"
	"herdcats/internal/obs"
)

// The enumeration of Sec. 3 is combinatorial: read-value vectors, rf maps
// and per-location co orders multiply, and diy-generated corpora contain
// tests whose candidate space exceeds any practical bound (the paper's
// Tab. IV reports tests herd could not process). A Budget makes the search
// interruptible: enumeration stops early, reporting the structured reason.
// Candidates are delivered under the zero-copy yield contract (see
// Candidate): each is valid during its yield callback, and retained copies
// must be taken with Clone.

// ErrBudgetExceeded is the sentinel matched (with errors.Is) by every
// budget-exhaustion error returned from EnumerateCtx.
var ErrBudgetExceeded = errors.New("enumeration budget exceeded")

// ErrCanceled is the sentinel matched by errors returned when the caller's
// context is canceled mid-search.
var ErrCanceled = errors.New("enumeration canceled")

// Budget bounds one enumeration. The zero value is unlimited.
type Budget struct {
	// MaxCandidates stops the search after this many candidates have
	// been yielded (0 = unlimited). A search that stops here may or may
	// not have had more candidates to find; it is reported incomplete.
	MaxCandidates int

	// MaxTracesPerThread truncates the per-thread control-flow trace
	// enumeration (0 = unlimited). Truncation is reported as incomplete
	// after the (partial) candidate space has been enumerated.
	MaxTracesPerThread int

	// Timeout is a wall-clock bound on the whole search (0 = none). The
	// search reads the clock when it starts and then on every 64th of its
	// liveness polls, which come at least once per candidate, so it stops
	// at most 64 candidates (each walked and checked) past the deadline.
	// A canceled context is still honoured within one candidate.
	Timeout time.Duration
}

// Key renders the budget canonically for content-addressed caching
// (internal/memo): two budgets with equal bounds have equal keys. The
// wall-clock Timeout participates because an outcome truncated by it is a
// different (and non-reproducible) artifact from an unbounded one.
// It reads candidates=%d;traces=%d;timeout=%d, rendered without fmt:
// a request renders its budget key once, but the cache keys it feeds
// are echoed to clients, so these bytes never change.
func (b Budget) Key() string {
	var buf [80]byte
	k := append(buf[:0], "candidates="...)
	k = strconv.AppendInt(k, int64(b.MaxCandidates), 10)
	k = append(k, ";traces="...)
	k = strconv.AppendInt(k, int64(b.MaxTracesPerThread), 10)
	k = append(k, ";timeout="...)
	k = strconv.AppendInt(k, int64(b.Timeout), 10)
	return string(k)
}

// satMul multiplies two positive ints, saturating at math.MaxInt.
func satMul(a, f int) int {
	if a > math.MaxInt/f {
		return math.MaxInt
	}
	return a * f
}

// LimitError reports which bound of a Budget tripped. It matches
// ErrBudgetExceeded under errors.Is.
type LimitError struct {
	Limit      string // "candidates", "traces" or "timeout"
	Max        int    // the configured bound (0 for "timeout")
	Candidates int    // candidates yielded before the search stopped
}

func (e *LimitError) Error() string {
	if e.Limit == "timeout" {
		return fmt.Sprintf("enumeration budget exceeded: timeout after %d candidates", e.Candidates)
	}
	return fmt.Sprintf("enumeration budget exceeded: %s limit %d after %d candidates",
		e.Limit, e.Max, e.Candidates)
}

func (e *LimitError) Is(target error) bool { return target == ErrBudgetExceeded }

// CancelError reports a context cancellation observed mid-search. It
// matches ErrCanceled under errors.Is and unwraps to the context's error.
type CancelError struct {
	Cause      error
	Candidates int // candidates yielded before the search stopped
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("enumeration canceled after %d candidates: %v", e.Candidates, e.Cause)
}

func (e *CancelError) Is(target error) bool { return target == ErrCanceled }
func (e *CancelError) Unwrap() error        { return e.Cause }

// search carries the cancellation and accounting state of one EnumerateCtx
// call through the nested recursions of the candidate enumeration.
type search struct {
	ctx      context.Context
	b        Budget
	deadline time.Time // zero if no wall-clock bound
	yield    func(*Candidate) bool

	cands   int   // candidates yielded so far
	stopped bool  // stop the recursion (user stop, budget, or cancel)
	err     error // non-nil iff stopped abnormally
	tick    uint  // throttle for the deadline/cancellation checks

	slot   *candSlot  // lazily-taken reusable candidate arena (see expand.go)
	derive events.Dyn // what emission derives: everything, or nothing when deferred

	st  *store // where the search carves its traces: its program's if shared, else own
	own *store // the search's own store (private), nil until first used
}

// takeStore sets the store the search carves its traces into. On a
// shared program it is the program's, whose memo keeps them. Any other
// program keeps nothing of a search, so the search carves into its own
// store, and its traces die with it: a program searched again and again
// never grows.
func (s *search) takeStore(p *Program) {
	if p.shared != nil {
		s.st = p.st
		return
	}
	s.st = s.private()
}

// private returns the search's own store, taking it from the pool on
// first use. It holds what no program keeps: an unshared program's trace
// sets, and every skeleton the search builds that its program does not
// memoise. walkCombos rewinds such a skeleton once its walk is over, so
// the store holds one at a time, however many combinations the search
// walks.
func (s *search) private() *store {
	if s.own == nil {
		s.own = stores.Get().(*store)
	}
	return s.own
}

// releaseStore rewinds the search's own store and puts it back, once the
// search is over and its slot released.
func (s *search) releaseStore() {
	if s.own != nil {
		s.own.reset()
		stores.Put(s.own)
		s.own = nil
	}
}

// candidateSlot returns the search's candidate arena, taking it from the
// pool on first use so searches that never reach a leaf (infeasible,
// canceled early) take none.
func (s *search) candidateSlot() *candSlot {
	if s.slot == nil {
		s.slot = slots.Get().(*candSlot)
	}
	return s.slot
}

// releaseSlot puts the search's candidate arena back once the search is
// over: a candidate it yielded is Expired from then on.
func (s *search) releaseSlot() {
	if s.slot != nil {
		s.slot.release()
		s.slot = nil
	}
}

// flush publishes the search's private candidate count to an
// observability sink. Counting privately and flushing once keeps the hot
// walk free of atomics; a nil sink makes the whole call a branch.
func (s *search) flush(sink *obs.EnumStats) {
	sink.AddCandidates(s.cands)
}

// halt stops the search abnormally, recording the reason. The first
// reason wins.
func (s *search) halt(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
}

// alive reports whether the search may continue. Cancellation and the
// wall clock are polled on the first call and every 64th after it, to
// keep the inner loops cheap. force polls cancellation whatever the tick
// (it is used immediately before a yield, so a cancellation is honoured
// within one candidate), but never the clock: reading it costs more than
// a check of a small candidate, so the deadline waits for the tick.
func (s *search) alive(force bool) bool {
	if s.stopped {
		return false
	}
	clock := s.tick&63 == 0
	s.tick++
	if !force && !clock {
		return true
	}
	select {
	case <-s.ctx.Done():
		s.halt(&CancelError{Cause: context.Cause(s.ctx), Candidates: s.cands})
		return false
	default:
	}
	if clock && !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.halt(&LimitError{Limit: "timeout", Candidates: s.cands})
		return false
	}
	return true
}

// emit hands one candidate to the caller and applies the candidate budget.
// It returns false when the search must stop.
func (s *search) emit(c *Candidate) bool {
	if !s.alive(true) {
		return false
	}
	s.cands++
	if !s.yield(c) {
		s.stopped = true // user stop: not an error
		return false
	}
	if s.b.MaxCandidates > 0 && s.cands >= s.b.MaxCandidates {
		s.halt(&LimitError{Limit: "candidates", Max: s.b.MaxCandidates, Candidates: s.cands})
		return false
	}
	return true
}

// newSearch builds a search with the effective deadline: the earlier of
// the budget's Timeout and the context's own deadline.
func newSearch(ctx context.Context, b Budget, yield func(*Candidate) bool) *search {
	s := &search{ctx: ctx, b: b, yield: yield}
	if b.Timeout > 0 {
		s.deadline = time.Now().Add(b.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (s.deadline.IsZero() || d.Before(s.deadline)) {
		s.deadline = d
	}
	return s
}

// errNoTrace reports a thread with no feasible control-flow trace.
func errNoTrace(tid int) error {
	return fmt.Errorf("exec: thread %d has no feasible trace", tid)
}
