// Package exec enumerates the candidate executions of a litmus test,
// following the three-stage recipe of Sec. 3 of the paper:
//
//  1. control-flow semantics: each thread's instructions are executed
//     concretely (package isa), one trace per assignment of values to its
//     memory reads, yielding events, iico and register read-from;
//  2. data-flow semantics: every read-from map (each read paired with a
//     same-location same-value write, possibly the initial write) and every
//     per-location coherence order are enumerated;
//  3. the resulting (E, po, rf, co) tuples are the candidate executions,
//     handed to a constraint specification (package core) for validation.
package exec

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"

	"herdcats/internal/events"
	"herdcats/internal/isa"
	"herdcats/internal/litmus"
)

// addrBase is the integer encoding of the first location's address.
// Locations are consecutive; litmus data values are small, so there is no
// overlap in practice (enforced in Compile).
const addrBase = 0x1000

// Candidate is one candidate execution with its observable final state.
//
// Ownership: a candidate delivered by Program.Search is backed by the
// search's reusable arena slot and is valid only for the duration of the
// yield callback — the next candidate is derived into the same buffers.
// Callers that retain a candidate (or any relation reachable from X) past
// their yield must take a Clone; a retained original is detectably stale
// (Expired reports true) rather than silently corrupt. Under
// Request.Deferred, X holds rf and co but no dynamic relation until the
// consumer derives the ones it reads (X.DeriveDemand).
type Candidate struct {
	X     *events.Execution
	State *litmus.State

	slot *candSlot // arena slot backing this candidate; nil for standalone copies
	gen  uint64    // slot generation at emit time
}

// Clone returns a standalone deep copy of the candidate that stays valid
// indefinitely, after its program is released too. A search's candidate
// lives in its program's storage, skeleton included, so the copy points
// at a standalone copy of the skeleton (events, po, iico, rf-reg and the
// static derivation over them), made once per skeleton and shared by
// every clone of its candidates; rf, co and the final memory are copied,
// and the dynamic relations derived afresh from them, so the copy is
// always fully derived. A clone of a clone, or of a hand-built
// candidate, shares its skeleton. Clone of an Expired candidate panics:
// its slot holds another candidate by then.
func (c *Candidate) Clone() *Candidate {
	if c.Expired() {
		panic("exec: Clone of an expired candidate")
	}
	s, regs := c.X.Skeleton, c.State.Regs
	if c.slot != nil {
		s, regs = c.slot.exp.standalone()
	}
	x := &events.Execution{Skeleton: s, RF: c.X.RF.Clone(), CO: c.X.CO.Clone()}
	x.DeriveDemand(events.DynAll)
	return &Candidate{X: x, State: &litmus.State{Regs: regs, Mem: maps.Clone(c.State.Mem)}}
}

// Expired reports whether the arena slot backing this candidate has since
// been reused for a later candidate, i.e. the holder violated the yield
// lifetime without cloning. Every candidate of a finished search has
// expired, so every candidate of a released program has. Standalone
// candidates (clones, hand-built ones) never expire.
func (c *Candidate) Expired() bool {
	return c.slot != nil && c.slot.gen != c.gen
}

// Program is a compiled litmus test, ready for enumeration.
type Program struct {
	Test    *litmus.Test
	Threads [][]isa.Instr
	locs    []string       // sorted location names
	locIdx  map[string]int // name -> index
	domain  []int          // read-value domain

	// initVals holds each location's encoded initial value, in locs
	// order, encoded once here rather than once per trace combination.
	// initErr is the first encoding failure; it surfaces from the search,
	// where encoding the initial writes used to fail.
	initVals []int
	initErr  error

	// shared is the comparison-scoped memo of trace sets and skeletons;
	// nil (memoise nothing) unless ProgramFor compiled the program for a
	// Share context.
	shared *shared

	// st is the storage the program carves stage 1 into, taken on first
	// use (storage): a shared program's traces and skeletons, and what
	// ThreadTraces and Assemble return. released refuses every use after
	// Release.
	st       *store
	stOnce   sync.Once
	released bool
}

// Compile parses the threads of a test and prepares the value domain. The
// program takes stage-1 storage from a pool once it carves any; Release
// gives it back.
func Compile(t *litmus.Test) (*Program, error) {
	p := &Program{Test: t, locs: t.Locations, locIdx: map[string]int{}}
	for i, l := range t.Locations {
		p.locIdx[l] = i
	}
	for tid, lines := range t.Threads {
		instrs, err := isa.ParseThread(t.Arch, lines)
		if err != nil {
			return nil, fmt.Errorf("exec: thread %d: %v", tid, err)
		}
		p.Threads = append(p.Threads, instrs)
	}
	p.initVals = make([]int, len(p.locs))
	for i, loc := range p.locs {
		v, err := p.encode(t.MemInit[loc])
		if err != nil {
			p.initErr = err
			break
		}
		p.initVals[i] = v
	}
	p.domain = p.valueDomain()
	for _, v := range p.domain {
		if v >= addrBase && v < addrBase+len(p.locs) && !p.isAddrDomain() {
			return nil, fmt.Errorf("exec: data value %d collides with address encoding", v)
		}
	}
	return p, nil
}

// encode turns a litmus value into its integer encoding.
func (p *Program) encode(v litmus.Value) (int, error) {
	if v.Loc == "" {
		return v.Int, nil
	}
	idx, ok := p.locIdx[v.Loc]
	if !ok {
		return 0, fmt.Errorf("exec: unknown location %q", v.Loc)
	}
	return addrBase + idx, nil
}

// Decode turns an encoded integer back into a litmus value.
func (p *Program) Decode(v int) litmus.Value {
	if v >= addrBase && v < addrBase+len(p.locs) {
		return litmus.Value{Loc: p.locs[v-addrBase]}
	}
	return litmus.Value{Int: v}
}

// Encode turns a litmus value into its integer encoding (see Decode).
func (p *Program) Encode(v litmus.Value) (int, error) { return p.encode(v) }

// InitValue returns the encoded initial value of a location.
func (p *Program) InitValue(loc string) (int, error) {
	return p.encode(p.Test.MemInit[loc])
}

func (p *Program) locOf(addr int) (string, bool) {
	if addr >= addrBase && addr < addrBase+len(p.locs) {
		return p.locs[addr-addrBase], true
	}
	return "", false
}

// isAddrDomain reports whether addresses can flow into memory (a location
// initially holds an address), in which case reads may observe addresses.
func (p *Program) isAddrDomain() bool {
	for _, v := range p.Test.MemInit {
		if v.Loc != "" {
			return true
		}
	}
	return false
}

// valueDomain computes the set of values a memory read can plausibly
// return: initial values, stored immediates, condition constants, closed
// under the arithmetic the program performs (bounded).
func (p *Program) valueDomain() []int {
	set := map[int]bool{0: true}
	addInt := func(v int) { set[v] = true }
	for _, th := range p.Threads {
		for _, in := range th {
			switch in.Op {
			case isa.OpLi, isa.OpStoreAI, isa.OpAddi:
				addInt(in.Imm)
			}
		}
	}
	for _, v := range p.Test.MemInit {
		if enc, err := p.encode(v); err == nil {
			addInt(enc)
		}
	}
	for _, v := range p.Test.RegInit {
		if v.Loc == "" {
			addInt(v.Int)
		}
	}
	if p.Test.Cond != nil {
		addCondInts(p.Test.Cond, p, set)
	}
	// Close under the operations the program actually uses, capped.
	ops := map[isa.Op]bool{}
	for _, th := range p.Threads {
		for _, in := range th {
			ops[in.Op] = true
		}
	}
	const maxDomain = 64
	for round := 0; round < 4; round++ {
		vals := keys(set)
		if len(set) > maxDomain {
			break
		}
		for _, a := range vals {
			for _, b := range vals {
				if ops[isa.OpAdd] {
					addInt(a + b)
				}
				if ops[isa.OpXor] {
					addInt(a ^ b)
				}
				if ops[isa.OpAnd] {
					addInt(a & b)
				}
				if len(set) > maxDomain {
					break
				}
			}
		}
	}
	out := keys(set)
	sort.Ints(out)
	// Drop address-range values unless addresses can be stored to memory.
	if !p.isAddrDomain() {
		filtered := out[:0]
		for _, v := range out {
			if v < addrBase || v >= addrBase+len(p.locs) {
				filtered = append(filtered, v)
			}
		}
		out = filtered
	}
	return out
}

func addCondInts(c litmus.Cond, p *Program, set map[int]bool) {
	switch c := c.(type) {
	case *litmus.AtomReg:
		if enc, err := p.encode(c.Val); err == nil {
			set[enc] = true
		}
	case *litmus.AtomMem:
		if enc, err := p.encode(c.Val); err == nil {
			set[enc] = true
		}
	case *litmus.And:
		addCondInts(c.L, p, set)
		addCondInts(c.R, p, set)
	case *litmus.Or:
		addCondInts(c.L, p, set)
		addCondInts(c.R, p, set)
	case *litmus.Not:
		addCondInts(c.X, p, set)
	}
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Trace is one control-flow semantics of a single thread (Sec. 3): its
// events with thread-local IDs, the builder's edge lists, and the final
// register file. Values are concrete; the enumeration over traces is the
// enumeration over read-value assignments. A trace's slices and map are
// carved from its program's store: nothing else writes them once
// ThreadTraces returns, and they are valid until the program is released.
type Trace struct {
	Events    []events.Event
	IICO      [][2]int
	IICOAddr  [][2]int
	IICOData  [][2]int
	RFReg     [][2]int
	FinalRegs map[string]int

	mem  []access // memory events, in event order
	open []access // reads that neither an initial write nor this trace's writes can feed
}

// access is one memory event of a trace, its location as an index into
// Program.locs: what the feasibility pre-check and the skeleton's
// per-location lists read instead of the event's location name.
type access struct {
	ev    int // trace-local event ID
	loc   int
	val   int
	write bool
}

// ThreadTraces enumerates the traces of one thread over the value domain.
// A shared program (ProgramFor) returns its kept set, enumerating every
// thread to completion and keeping the sets first if no search has, so a
// later search takes them too; callers must not modify it. Should that
// enumeration fail, the thread is enumerated alone, as on any program,
// into storage the program keeps until its release. A released program
// returns an error.
func (p *Program) ThreadTraces(tid int) ([]Trace, error) {
	if p.released {
		return nil, errReleased
	}
	s := &search{ctx: context.Background(), st: p.storage()}
	if p.shared != nil {
		if all, _, err := p.allTraces(s); err == nil {
			return all[tid], nil
		}
	}
	ts, _, err := p.threadTraces(s, tid)
	return ts, err
}

// threadTraces is ThreadTraces under a search: the recursion polls the
// search's cancellation state, and MaxTracesPerThread truncates the result
// (reported via the second return, not an error — the truncated trace set
// still yields a sound partial candidate space). Every run of the thread
// goes through one reused builder, a tracer's; a kept trace copies its
// parts out into the program's store, and so does the finished set.
func (p *Program) threadTraces(s *search, tid int) ([]Trace, bool, error) {
	tc := tracers.Get().(*tracer)
	defer tc.put()
	regInit := tc.regInit
	for k, v := range p.Test.RegInit {
		if k.Tid != tid {
			continue
		}
		enc, err := p.encode(v)
		if err != nil {
			return nil, false, err
		}
		regInit[k.Reg] = enc
	}

	truncated := false
	// tc.vals is the read-value vector under construction; position i
	// holds the value of the i-th dynamic read of the thread.
	b := &tc.b
	idx, needMore := 0, false
	env := isa.Env{
		LocOf: p.locOf,
		ReadVal: func(string) (int, bool) {
			if idx < len(tc.vals) {
				v := tc.vals[idx]
				idx++
				return v, true
			}
			needMore = true
			return 0, false
		},
	}
	var rec func() error
	rec = func() error {
		if !s.alive(false) {
			return nil
		}
		if s.b.MaxTracesPerThread > 0 && len(tc.out) >= s.b.MaxTracesPerThread {
			truncated = true
			return nil
		}
		b.Reset()
		idx, needMore = 0, false
		final, err := isa.Run(b, tid, p.Threads[tid], regInit, env)
		if err == nil {
			tr, err := p.keepTrace(s.st, b, final)
			if err != nil {
				return err
			}
			tc.out = append(tc.out, tr)
			return nil
		}
		if err != isa.ErrInfeasible || !needMore {
			return err
		}
		// The trace needs one more read value: extend the vector.
		for _, v := range p.domain {
			tc.vals = append(tc.vals, v)
			if err := rec(); err != nil {
				return err
			}
			tc.vals = tc.vals[:len(tc.vals)-1]
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, false, err
	}
	if len(tc.out) == 0 {
		return nil, truncated, nil
	}
	s.st.mu.Lock()
	out := take(&s.st.traces, len(tc.out))
	s.st.mu.Unlock()
	copy(out, tc.out)
	return out, truncated, nil
}

// keepTrace copies a finished run out of the reused builder into the
// program's store: each slice at its exact size (the four edge lists
// carved from one stretch), the final registers into a map the store
// keeps. It indexes the memory events for the feasibility pre-check.
func (p *Program) keepTrace(st *store, b *isa.Builder, final map[string]int) (Trace, error) {
	nMem := 0
	for _, e := range b.Events {
		if e.IsMem() {
			nMem++
		}
	}
	st.mu.Lock()
	tr := Trace{FinalRegs: st.regMap()}
	if len(b.Events) > 0 {
		tr.Events = take(&st.evs, len(b.Events))
	}
	edges := take(&st.edges, len(b.IICO)+len(b.IICOAddr)+len(b.IICOData)+len(b.RFReg))
	var acc []access
	if nMem > 0 {
		acc = take(&st.accs, 2*nMem)[:nMem] // mem, then open in the spare half
	}
	st.mu.Unlock()
	maps.Copy(tr.FinalRegs, final)
	copy(tr.Events, b.Events)
	carve := func(src [][2]int) [][2]int {
		if len(src) == 0 {
			return nil
		}
		n := copy(edges, src)
		out := edges[:n:n]
		edges = edges[n:]
		return out
	}
	tr.IICO, tr.IICOAddr, tr.IICOData, tr.RFReg = carve(b.IICO), carve(b.IICOAddr), carve(b.IICOData), carve(b.RFReg)

	if nMem == 0 {
		return tr, nil
	}
	k := 0
	for _, e := range tr.Events {
		if !e.IsMem() {
			continue
		}
		loc, ok := p.locIdx[e.Loc]
		if !ok {
			return Trace{}, fmt.Errorf("exec: unknown location %q", e.Loc)
		}
		acc[k] = access{ev: e.ID, loc: loc, val: e.Val, write: e.Kind == events.MemWrite}
		k++
	}
	tr.mem = acc
	tr.open = acc[nMem:nMem]
	for _, r := range tr.mem {
		if !r.write && p.initVals[r.loc] != r.val && !writes(tr.mem, r) {
			tr.open = append(tr.open, r)
		}
	}
	return tr, nil
}

// writes reports whether mem holds a write that can feed read r: same
// location, same value.
func writes(mem []access, r access) bool {
	for _, w := range mem {
		if w.write && w.loc == r.loc && w.val == r.val {
			return true
		}
	}
	return false
}

// Candidates collects every candidate execution of a test (convenience).
// Each candidate is cloned out of the search's arena slot, so the returned
// slice stays valid indefinitely: the program is released on return.
func Candidates(t *litmus.Test) ([]*Candidate, error) {
	p, err := Compile(t)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	var out []*Candidate
	err = p.Search(context.Background(), Request{}, func(c *Candidate) bool {
		out = append(out, c.Clone())
		return true
	})
	return out, err
}
