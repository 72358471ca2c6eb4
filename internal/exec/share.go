package exec

import (
	"context"
	"sync"

	"herdcats/internal/litmus"
)

// Stage 1 of Sec. 3 — each thread's traces and the skeleton of each trace
// combination — depends on the test alone, not on the model. When several
// deciders judge one test (a crosscheck comparison), they share one
// program that keeps that stage: Share puts a lazily compiled program on
// the context they receive, and ProgramFor hands it out. This is the only way
// a compiled test is shared; nothing holds one beyond the work that
// compiled it. Its memo lives exactly as long as that context is in use.
// A program from plain Compile memoises nothing (DESIGN.md §18).

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

// shareKey is the context key of a comparison's shared program.
type shareKey struct{}

// shareSlot is the program Share attaches to a context, compiled by the
// first ProgramFor for its test.
type shareSlot struct {
	test *litmus.Test
	once sync.Once
	p    *Program
	err  error
	over bool // released
}

// Share returns a context carrying one program for test, shared by every
// ProgramFor(ctx, test) below it: compiled once, on first use, it keeps
// its complete trace sets and its skeletons across all searches over it.
// Pass the returned context only to the calls that judge this one test.
// Once none of them runs any more, call release: it releases the program
// (Program.Release), if one was compiled, and a ProgramFor under the
// context afterwards gets the released program, which answers nothing.
// A second release panics.
func Share(ctx context.Context, test *litmus.Test) (context.Context, func()) {
	sl := &shareSlot{test: test}
	return context.WithValue(ctx, shareKey{}, sl), sl.release
}

// release ends the slot: no program is compiled for it any more, and the
// one compiled, if any, is released.
func (sl *shareSlot) release() {
	if sl.over {
		panic("exec: shared program released twice")
	}
	sl.over = true
	sl.once.Do(func() { sl.err = errReleased })
	if sl.p != nil {
		sl.p.Release()
	}
}

// ProgramFor returns the program ctx shares for test (see Share),
// compiling it on the first call, and a no-op done: the program belongs
// to the Share. For a test ctx shares no program for — none attached, or
// one attached for another test — it compiles afresh with Compile, and
// that program memoises nothing; done releases it, and the caller calls
// it once it is finished with the program. done is never nil.
func ProgramFor(ctx context.Context, test *litmus.Test) (p *Program, done func(), err error) {
	sl, ok := ctx.Value(shareKey{}).(*shareSlot)
	if !ok || sl.test != test {
		p, err := Compile(test)
		if err != nil {
			return nil, func() {}, err
		}
		return p, p.Release, nil
	}
	sl.once.Do(func() {
		sl.p, sl.err = Compile(test)
		if sl.err == nil {
			sl.p.shared = &shared{st: sl.p.storage()}
		}
	})
	return sl.p, func() {}, sl.err
}
