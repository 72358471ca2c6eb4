package exec

import (
	"sync"

	"herdcats/internal/litmus"
)

// Stage 1 of Sec. 3 — each thread's traces and the skeleton of each trace
// combination — depends on the test alone, not on the model. When several
// deciders judge one test (a crosscheck comparison), they share one
// program that keeps that stage: CompileShared builds it, and the
// comparison's scope (crosscheck) compiles it on first use, hands it to
// every decider and releases it when the comparison returns. Nothing else
// holds a compiled test beyond the work that compiled it. A program from
// plain Compile memoises nothing (DESIGN.md §18).

// shared is the memo of a program compiled for one comparison. traces is
// every thread's complete trace set, kept by the first search whose trace
// enumeration ran to the end: not canceled, not timed out, not truncated
// by MaxTracesPerThread. exps holds the expansion of each feasible
// combination over exactly those sets, by combination index, once a search
// has built it. It never holds more than a sharded search over the same
// sets does at once: buildShards builds every feasible expansion up front.
type shared struct {
	mu     sync.Mutex
	st     *store // its program's: exps is the store's map, kept across programs
	traces [][]Trace
	exps   map[int]*expansion
}

// complete returns the kept trace sets, or nil before any are kept (or
// for a program that memoises nothing).
func (sh *shared) complete() [][]Trace {
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.traces
}

// keep records traces as the complete trace sets, unless some search
// already did (the first wins; any two are equal).
func (sh *shared) keep(traces [][]Trace) {
	if sh == nil || len(traces) == 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.traces != nil {
		return
	}
	sh.traces, sh.exps = traces, sh.st.exps
	if sh.exps == nil {
		sh.exps = map[int]*expansion{}
		sh.st.exps = sh.exps
	}
}

// expansion returns combination ci's expansion, choice being its decoded
// trace choice, and whether it is the search's own to discard once walked.
// When allTraces are a shared program's kept trace sets themselves (not a
// budget's prefix of them), the expansion is the kept one, built into the
// program's store and kept on first use; concurrent searches may build
// one combination twice, and the first kept wins. Otherwise it is built
// afresh into the search's own store.
func (p *Program) expansion(s *search, allTraces [][]Trace, ci int, choice []int) (e *expansion, own bool, err error) {
	sh := p.shared
	memo := false
	if sh != nil && len(allTraces) > 0 {
		sh.mu.Lock()
		memo = sh.traces != nil && &allTraces[0] == &sh.traces[0]
		var kept *expansion
		if memo {
			kept = sh.exps[ci]
		}
		sh.mu.Unlock()
		if kept != nil {
			return kept, false, nil
		}
	}
	if !memo {
		e, err := p.newExpansion(s.private(), allTraces, choice)
		return e, true, err
	}
	e, err = p.newExpansion(sh.st, allTraces, choice)
	if e == nil || err != nil {
		return e, false, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if kept := sh.exps[ci]; kept != nil {
		return kept, false, nil
	}
	sh.exps[ci] = e
	return e, false, nil
}

// capped returns the trace sets a search under a MaxTracesPerThread cap
// sees, given the complete ones: each set's first max traces, in the order
// the enumeration finds them, and whether the cap cut any set. This is
// exactly what the capped enumeration yields and reports: it stops, as
// truncated, at the first run of a thread after its max-th trace, and
// such a run exists iff the thread has more than max traces.
func capped(all [][]Trace, max int) ([][]Trace, bool) {
	if max <= 0 {
		return all, false
	}
	var out [][]Trace
	for tid, ts := range all {
		if len(ts) <= max {
			continue
		}
		if out == nil {
			out = append([][]Trace(nil), all...)
		}
		out[tid] = ts[:max:max]
	}
	if out == nil {
		return all, false
	}
	return out, true
}

// CompileShared compiles test as Compile does, into a program that keeps
// stage 1 across its searches: the first complete trace enumeration keeps
// its trace sets, and every search over them keeps the skeletons it
// expands (shared). Give it only to the calls that judge this one test,
// and release it once none of them runs any more.
func CompileShared(test *litmus.Test) (*Program, error) {
	p, err := Compile(test)
	if err != nil {
		return nil, err
	}
	p.shared = &shared{st: p.storage()}
	return p, nil
}
