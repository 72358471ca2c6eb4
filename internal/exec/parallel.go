package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"herdcats/internal/events"
	"herdcats/internal/obs"
)

// Request gathers every knob of one enumeration, for Search and
// SearchShards alike. The zero value enumerates sequentially,
// unbudgeted and uninstrumented, and yields fully derived candidates.
type Request struct {
	// Budget bounds the search (see Budget); the zero value is unlimited.
	Budget Budget

	// Workers is the number of goroutines SearchShards splits the rf/co
	// decision tree across; Search ignores it and always walks
	// sequentially. The shard streams concatenate to the sequential one,
	// truncation point included, so Workers never changes a verdict, and
	// caches (internal/memo) deliberately exclude it from their keys.
	Workers int

	// Obs, when non-nil, receives the enumeration counters: candidates
	// yielded and shard utilisation. Counters are accumulated privately
	// per worker and flushed in bulk, so the hot walk stays free of
	// atomics; a nil sink costs one branch per flush point.
	Obs *obs.EnumStats

	// Deferred hands each candidate over with rf and co alone: the
	// consumer derives the dynamic relations it reads itself, with
	// X.DeriveDemand, inside its yield. The default derives every one
	// before the yield, so any consumer may read any field.
	Deferred bool
}

// derive is what emission derives under the request.
func (r Request) derive() events.Dyn {
	if r.Deferred {
		return 0
	}
	return events.DynAll
}

// Search enumerates every candidate execution of the compiled program
// under req, handing each to yield (return false to stop early). The
// search stops as soon as ctx is canceled (within one yield) or a Budget
// bound trips, returning an error matching ErrCanceled or
// ErrBudgetExceeded.
//
// Candidates are delivered zero-copy: each *Candidate is backed by the
// search's reusable arena slot and is valid only for the duration of its
// yield call. Consume it in place, or take Candidate.Clone to retain it;
// a retained original reports Expired once the slot moves on. A released
// program returns an error.
func (p *Program) Search(ctx context.Context, req Request, yield func(*Candidate) bool) error {
	if p.released {
		return errReleased
	}
	s := newSearch(ctx, req.Budget, yield)
	s.derive = req.derive()
	s.takeStore(p)
	defer s.releaseStore()
	defer s.flush(req.Obs)
	defer s.releaseSlot()
	if !s.alive(true) { // already canceled or expired before the search starts
		return s.err
	}
	allTraces, truncated, err := p.allTraces(s)
	if err == nil && s.err == nil {
		err = p.walkCombos(s, allTraces, 0, comboCount(allTraces))
	}
	switch {
	case err != nil:
		return err
	case s.err != nil:
		return s.err
	case truncated:
		return &LimitError{Limit: "traces", Max: req.Budget.MaxTracesPerThread, Candidates: s.cands}
	}
	return nil
}

// allTraces enumerates every thread's traces under the search's budget.
// A shared program enumerates them once: a search that runs the
// enumeration to the end keeps the sets, and later searches take them, or
// their prefixes under a MaxTracesPerThread cap (see capped).
func (p *Program) allTraces(s *search) (traces [][]Trace, truncated bool, err error) {
	if all := p.shared.complete(); all != nil {
		traces, truncated = capped(all, s.b.MaxTracesPerThread)
		return traces, truncated, nil
	}
	s.st.mu.Lock()
	traces = take(&s.st.sets, len(p.Threads))
	s.st.mu.Unlock()
	clear(traces)
	for tid := range p.Threads {
		ts, trunc, err := p.threadTraces(s, tid)
		if err != nil {
			return nil, false, err
		}
		if s.err != nil {
			return traces, truncated, nil
		}
		if len(ts) == 0 {
			return nil, false, errNoTrace(tid)
		}
		traces[tid] = ts
		truncated = truncated || trunc
	}
	if !truncated && !s.stopped {
		p.shared.keep(traces)
	}
	return traces, truncated, nil
}

// comboCount is the number of trace combinations, saturating at MaxInt —
// a space no walk can finish anyway.
func comboCount(allTraces [][]Trace) int {
	nc := 1
	for _, ts := range allTraces {
		nc = satMul(nc, len(ts))
	}
	return nc
}

// comboChoice decodes combo index ci (thread 0 most significant) into the
// per-thread trace choice vector.
func comboChoice(allTraces [][]Trace, ci int, choice []int) {
	for tid := len(allTraces) - 1; tid >= 0; tid-- {
		n := len(allTraces[tid])
		choice[tid] = ci % n
		ci /= n
	}
}

// walkCombos walks the trace combinations [lo, hi) in index order — the
// sequential visit order — each through its own decision tree. A skeleton
// the program does not keep is rewound away once its walk is over: the
// candidates it backed have expired by the next emission, and nothing
// else reads it.
func (p *Program) walkCombos(s *search, allTraces [][]Trace, lo, hi int) error {
	choice := make([]int, len(p.Threads))
	for ci := lo; ci < hi && s.alive(false); ci++ {
		comboChoice(allTraces, ci, choice)
		e, own, err := p.expansion(s, allTraces, ci, choice)
		if err != nil {
			return err
		}
		if e != nil {
			newWalker(e, s).walk(0)
		}
		if own {
			s.own.skel.reset()
		}
	}
	return nil
}

// --- sharding --------------------------------------------------------------

const (
	// shardsPerWorker oversubscribes the shard count so uneven subtrees
	// balance across the pool.
	shardsPerWorker = 4
	// maxShardsPerCombo caps the by-prefix split of one trace combination.
	maxShardsPerCombo = 1024
)

// Walk runs one shard's search, handing each candidate to yield zero-copy,
// as Search does, on the calling goroutine; yield returns false to stop.
type Walk func(yield func(*Candidate) bool)

// SearchShards is the partitioned search. It splits the decision forest
// into canonically ordered shards, walks them on req.Workers goroutines,
// and returns the consumers' partial results for the shards the sequential
// Search would visit, in shard order, with the error Search would return.
//
// newWorker is called on the calling goroutine, once per worker before
// any walk (and once more if a shard is walked again). Its function
// consumes one shard: it calls its Walk once and returns the partial. One
// worker's shards run one at a time on one goroutine, so per-worker state
// (an evaluator) needs no locking. A consumer's stop ends the search after
// its shard. The shard a MaxCandidates cap falls strictly inside is walked
// again up to the remaining count, discarding what it saw past the cap.
// With req.Workers <= 1 the search is one shard on the calling goroutine.
func SearchShards[P any](ctx context.Context, p *Program, req Request, newWorker func() func(Walk) P) ([]P, error) {
	if req.Workers > 1 {
		return searchSharded(ctx, p, req, newWorker)
	}
	var err error
	part := newWorker()(func(yield func(*Candidate) bool) { err = p.Search(ctx, req, yield) })
	return []P{part}, err
}

// shard is one unit of partitioned work: a range of trace combinations
// (exp == nil), or a decision-prefix subtree of one pre-built expansion.
// Its walker records how the walk ended and closes done; the merger (the
// calling goroutine) settles shards strictly in slice order.
type shard struct {
	lo, hi int        // combo range [lo, hi), when exp == nil
	exp    *expansion // shared, read-only
	prefix []int      // decision choices fixed for this shard

	done     chan struct{}
	cands    int   // candidates yielded
	stopped  bool  // the consumer's yield returned false on the last one
	err      error // timeout, cancellation or a hard error
	panicked any   // the consumer's panic, re-raised by the merger
}

// searchSharded is SearchShards across goroutines.
func searchSharded[P any](ctx context.Context, p *Program, req Request, newWorker func() func(Walk) P) ([]P, error) {
	if p.released {
		return nil, errReleased
	}
	ms := newSearch(ctx, req.Budget, nil) // traces and the shared deadline
	ms.takeStore(p)
	defer ms.releaseStore() // after the workers are done
	if !ms.alive(true) {
		return nil, ms.err
	}
	allTraces, truncated, err := p.allTraces(ms)
	if err == nil {
		err = ms.err
	}
	if err != nil {
		return nil, err
	}
	shards, err := p.buildShards(ms, allTraces, comboCount(allTraces), req.Workers)
	if err != nil {
		return nil, err
	}
	req.Obs.SetWorkers(req.Workers)
	req.Obs.AddShardsBuilt(len(shards))
	limit := req.Budget.MaxCandidates
	walk := func(ctx context.Context, consume func(Walk) P, sh *shard, limit int) P {
		return consume(func(yield func(*Candidate) bool) {
			p.walkShard(ctx, ms, limit, req, allTraces, sh, yield)
		})
	}

	// Workers claim shards in order from an atomic cursor, so every shard
	// before a claimed one is claimed too and the merger, waiting in
	// order, never waits on a shard nobody walks. Canceling wctx winds
	// the walks down.
	parts := make([]P, len(shards))
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range min(req.Workers, len(shards)) {
		consume := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < len(shards); i = int(cursor.Add(1)) - 1 {
				sh := &shards[i]
				if !sh.run(func() { parts[i] = walk(wctx, consume, sh, limit) }) {
					return // the consumer's state is suspect after a panic
				}
			}
		}()
	}

	n, folded, over := 0, len(shards), -1
	var panicked any
	for i := range shards {
		sh := &shards[i]
		<-sh.done
		if panicked = sh.panicked; panicked != nil {
			break
		}
		before, stop, overshot := n, false, false
		if n, stop, overshot, err = sh.settle(n, limit); overshot {
			over, n = i, before
		}
		if stop {
			folded = i + 1
			break
		}
	}
	wcancel()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if over >= 0 {
		// Redo the overshooting shard up to the remaining count, with a
		// fresh consumer: a worker's may be suspect after a panic past
		// the prefix.
		parts[over] = walk(ctx, newWorker(), &shards[over], limit-n)
		n, _, _, err = shards[over].settle(n, limit)
	}
	req.Obs.AddCandidates(n)
	if err == nil && truncated {
		err = &LimitError{Limit: "traces", Max: req.Budget.MaxTracesPerThread, Candidates: n}
	}
	return parts[:folded], err
}

// run calls f and closes done, recording a panic in f for the merger to
// re-raise on the caller's goroutine; it reports whether f returned.
func (sh *shard) run(f func()) (ok bool) {
	defer close(sh.done)
	defer func() {
		if !ok {
			sh.panicked = recover()
		}
	}()
	f()
	return true
}

// settle reads the shard's walk after n sequential candidates, under the
// cap limit (0 = none): the count after it, whether the sequential search
// stops inside it and with which error, and whether the cap falls strictly
// inside it, so that the walk overshot and must be redone.
func (sh *shard) settle(n, limit int) (total int, stop, overshot bool, err error) {
	total = n + sh.cands
	switch rem := limit - n; {
	case limit > 0 && sh.cands > rem:
		return limit, true, true, &LimitError{Limit: "candidates", Max: limit, Candidates: limit}
	case sh.stopped: // the consumer's stop precedes the cap check
		return total, true, false, nil
	case limit > 0 && sh.cands == rem:
		return limit, true, false, &LimitError{Limit: "candidates", Max: limit, Candidates: limit}
	case sh.err == nil:
		return total, false, false, nil
	}
	switch e := sh.err.(type) { // re-report with the sequential count
	case *LimitError:
		err = &LimitError{Limit: e.Limit, Max: e.Max, Candidates: total}
	case *CancelError:
		err = &CancelError{Cause: e.Cause, Candidates: total}
	default:
		err = sh.err
	}
	return total, true, false, err
}

// buildShards partitions the decision forest into canonically-ordered
// shards. With at least one combo per shard slot, shards are contiguous
// combo ranges (workers build their own expansions, in parallel); with few
// combos, each combo's expansion is built once here, kept by the program
// or by the master search ms until the workers are done, and split by
// decision prefix. Either way, concatenating the shards' depth-first streams in
// slice order reproduces the sequential visit order exactly.
func (p *Program) buildShards(ms *search, allTraces [][]Trace, nc, workers int) ([]shard, error) {
	target := workers * shardsPerWorker
	var shards []shard
	if nc >= target {
		q, r := nc/target, nc%target // sizes q or q+1: i*nc could overflow
		for i, lo := 0, 0; i < target; i++ {
			hi := lo + q
			if i < r {
				hi++
			}
			shards = append(shards, shard{lo: lo, hi: hi})
			lo = hi
		}
	} else {
		per := (target + nc - 1) / nc
		choice := make([]int, len(p.Threads))
		for ci := 0; ci < nc; ci++ {
			comboChoice(allTraces, ci, choice)
			e, _, err := p.expansion(ms, allTraces, ci, choice)
			if err != nil {
				return nil, err
			}
			if e == nil {
				continue // infeasible combination
			}
			k, count := prefixSplit(e.widths, per)
			if count <= 1 {
				shards = append(shards, shard{exp: e})
				continue
			}
			pref := make([]int, k)
			for {
				shards = append(shards, shard{exp: e, prefix: append([]int(nil), pref...)})
				j := k - 1
				for ; j >= 0; j-- {
					if pref[j]++; pref[j] < e.widths[j] {
						break
					}
					pref[j] = 0
				}
				if j < 0 {
					break
				}
			}
		}
	}
	for i := range shards {
		shards[i].done = make(chan struct{})
	}
	return shards, nil
}

// prefixSplit picks the shortest decision prefix whose choice count
// reaches want (capped), returning the prefix length and the count.
func prefixSplit(widths []int, want int) (k, count int) {
	count = 1
	for k = 0; k < len(widths) && count < want; k++ {
		if count > maxShardsPerCombo/widths[k] {
			break
		}
		count *= widths[k]
	}
	return k, count
}

// walkShard walks one shard with a search of its own — its own candidate
// slot, so candidates stay zero-copy, and its own store for the skeletons
// of a combination range that its program does not keep — capped at
// limit candidates (0 = none), and records how the walk ended in sh. It
// shares the master search ms's deadline and traces. The candidate total
// is the merger's, which counts the sequential prefix only.
func (p *Program) walkShard(ctx context.Context, ms *search, limit int, req Request, allTraces [][]Trace, sh *shard, yield func(*Candidate) bool) {
	ws := &search{ctx: ctx, b: Budget{MaxCandidates: limit}, deadline: ms.deadline, yield: yield, derive: req.derive()}
	defer ws.releaseStore()
	defer ws.releaseSlot()
	defer func() {
		sh.cands, sh.stopped, sh.err = ws.cands, ws.stopped && ws.err == nil, ws.err
		req.Obs.AddShardsRun(1)
	}()
	switch {
	case !ws.alive(true):
	case sh.exp == nil:
		if err := p.walkCombos(ws, allTraces, sh.lo, sh.hi); err != nil {
			ws.halt(err)
		}
	default:
		w := newWalker(sh.exp, ws)
		for lvl, c := range sh.prefix {
			w.apply(lvl, c)
		}
		w.walk(len(sh.prefix))
	}
}
