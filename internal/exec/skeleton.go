package exec

import (
	"fmt"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
)

// Assembled is the global event structure for one trace choice per thread,
// before any data-flow (rf and co are empty): the control-flow skeleton
// used by the symbolic encodings of package bmc.
type Assembled struct {
	X *events.Execution
	// ThreadOf and LocalIdx map a global event ID back to its thread and
	// its index within the thread's trace (-1 for initial writes).
	ThreadOf []int
	LocalIdx []int
	// FinalRegs is the register file of the chosen traces.
	FinalRegs map[litmus.RegKey]litmus.Value
}

// Assemble builds the global event structure for one trace per thread.
// The returned execution is derived, with empty rf and co.
func (p *Program) Assemble(traces []Trace) (*Assembled, error) {
	if len(traces) != len(p.Threads) {
		return nil, fmt.Errorf("exec: Assemble needs %d traces, got %d", len(p.Threads), len(traces))
	}
	if p.initErr != nil {
		return nil, p.initErr
	}
	wrapped := make([][]Trace, len(traces))
	for i := range traces {
		wrapped[i] = traces[i : i+1]
	}
	x, finalRegs := p.assemble(wrapped, make([]int, len(traces)))
	threadOf := make([]int, 0, x.N())
	localIdx := make([]int, 0, x.N())
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
	x.Derive()
	return &Assembled{X: x, ThreadOf: threadOf, LocalIdx: localIdx, FinalRegs: finalRegs}, nil
}
