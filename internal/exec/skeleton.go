package exec

import (
	"fmt"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
)

// Assembled is the global event structure for one trace choice per thread,
// before any data-flow: the control-flow skeleton used by the symbolic
// encodings of package bmc.
type Assembled struct {
	X *events.Skeleton
	// ThreadOf and LocalIdx map a global event ID back to its thread and
	// its index within the thread's trace (-1 for initial writes).
	ThreadOf []int
	LocalIdx []int
	// FinalRegs is the register file of the chosen traces.
	FinalRegs map[litmus.RegKey]litmus.Value
}

// Assemble builds the global event structure for one trace per thread.
// The returned skeleton is derived. Like the skeletons of a search, it is
// carved from the program's store, and valid until the program is
// released; a released program returns an error.
func (p *Program) Assemble(traces []Trace) (*Assembled, error) {
	if len(traces) != len(p.Threads) {
		return nil, fmt.Errorf("exec: Assemble needs %d traces, got %d", len(p.Threads), len(traces))
	}
	if p.released {
		return nil, errReleased
	}
	if p.initErr != nil {
		return nil, p.initErr
	}
	st := p.storage()
	st.mu.Lock()
	wrapped := take(&st.sets, len(traces))
	choice := take(&st.skel.ints, len(traces))
	st.mu.Unlock()
	for i := range traces {
		wrapped[i] = traces[i : i+1]
	}
	clear(choice)
	x := &events.Skeleton{}
	finalRegs := p.assemble(st, wrapped, choice, x)
	n := x.N()
	st.mu.Lock()
	idx := take(&st.skel.ints, 2*n)
	st.mu.Unlock()
	threadOf, localIdx := idx[:0:n], idx[n:n]
	for range p.locs {
		threadOf = append(threadOf, events.InitTid)
		localIdx = append(localIdx, -1)
	}
	for tid, tr := range traces {
		for li := range tr.Events {
			threadOf = append(threadOf, tid)
			localIdx = append(localIdx, li)
		}
	}
	x.DeriveStaticIn(st)
	return &Assembled{X: x, ThreadOf: threadOf, LocalIdx: localIdx, FinalRegs: finalRegs}, nil
}
