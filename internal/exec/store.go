package exec

import (
	"errors"
	"sync"

	"herdcats/internal/events"
	"herdcats/internal/isa"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// store is stage-1 storage (DESIGN.md §18.1): every trace's events, edge
// lists, accesses and final registers, the trace sets, and, in skel,
// each skeleton's events, relations, sets, int slices and final
// registers. A program takes a store from stores when it first carves
// (a shared program at once), and Release puts it back, rewound, for the
// next program to carve its stage 1 from. A search takes a store of its
// own for what no program keeps: an unshared program's traces, and any
// skeleton its program does not memoise, which it discards after walking
// it (search.private). Everything carved from a store lives until its
// owner rewinds it, so nothing read from traces or skeletons may outlive
// that (Candidate.Clone copies what it keeps). mu guards the carving:
// the searches of one shared program may run on several goroutines at
// once.
type store struct {
	mu sync.Mutex

	evs    []events.Event
	edges  [][2]int
	accs   []access
	traces []Trace
	sets   [][]Trace

	// regs is kept whole, cleared on reset, and handed out in order: its
	// first nRegs maps are in use as traces' final registers.
	regs  []map[string]int
	nRegs int

	skel skeletons

	// exps is the shared memo's map of kept expansions (share.go).
	exps map[int]*expansion
}

// skeletons is the part of a store that skeletons are carved from, and
// all a search rewinds after walking a skeleton it does not keep.
type skeletons struct {
	evs   []events.Event
	ints  []int
	intss [][]int
	mems  []locValue
	cos   []coLoc
	decs  []decision
	words []uint64 // the bits of rels and sets
	rels  []rel.Rel
	sets  []rel.Set

	// Maps are kept whole, as regs is: the first nFinals of finals are
	// in use as skeletons' final registers, the first nFences of fences
	// as their fence relations.
	finals  []map[litmus.RegKey]litmus.Value
	nFinals int
	fences  []map[events.FenceKind]rel.Rel // CtrlCfence and FenceRel
	nFences int
}

// stores keeps the stores of released programs and finished searches.
var stores = sync.Pool{New: func() any { return new(store) }}

// errReleased is the answer of a released program.
var errReleased = errors.New("exec: program used after Release")

// storage returns the program's store, taking it from stores on first use.
func (p *Program) storage() *store {
	p.stOnce.Do(func() { p.st = stores.Get().(*store) })
	return p.st
}

// Release hands the program's stage-1 storage back for a later program
// to carve its traces and skeletons from. Call it once no search over
// the program runs any more and nothing read from its traces, skeletons
// or candidates is used again: Search, SearchShards, ThreadTraces and
// Assemble then return an error, and every candidate the program yielded
// is Expired. A clone taken before stays valid. A second Release panics.
func (p *Program) Release() {
	if st := p.detach(); st != nil {
		stores.Put(st)
	}
}

// detach ends the program's hold on its store and returns it, rewound,
// or nil if the program never took one.
func (p *Program) detach() *store {
	if p.released {
		panic("exec: program released twice")
	}
	p.released = true
	p.stOnce.Do(func() {}) // a released program takes no store
	st := p.st
	p.st, p.shared = nil, nil
	if st != nil {
		st.reset()
	}
	return st
}

// reset rewinds the store for its next owner, keeping every chunk and
// map it grew, and drops what it referenced of its last one.
func (st *store) reset() {
	clear(st.evs)
	st.evs = st.evs[:0]
	st.edges = st.edges[:0]
	st.accs = st.accs[:0]
	clear(st.traces)
	st.traces = st.traces[:0]
	clear(st.sets)
	st.sets = st.sets[:0]
	for _, m := range st.regs[:st.nRegs] {
		clear(m)
	}
	st.nRegs = 0
	st.skel.reset()
	clear(st.exps)
}

// reset rewinds the skeletons' part of a store: every skeleton carved
// before is its storage again.
func (sk *skeletons) reset() {
	clear(sk.evs)
	sk.evs = sk.evs[:0]
	sk.ints = sk.ints[:0]
	clear(sk.intss)
	sk.intss = sk.intss[:0]
	clear(sk.mems)
	sk.mems = sk.mems[:0]
	clear(sk.cos)
	sk.cos = sk.cos[:0]
	sk.decs = sk.decs[:0]
	sk.words = sk.words[:0]
	clear(sk.rels)
	sk.rels = sk.rels[:0]
	clear(sk.sets)
	sk.sets = sk.sets[:0]
	for _, m := range sk.finals[:sk.nFinals] {
		clear(m)
	}
	for _, m := range sk.fences[:sk.nFences] {
		clear(m)
	}
	sk.nFinals, sk.nFences = 0, 0
}

// regMap returns an empty map for a trace's final registers. The caller
// holds mu.
func (st *store) regMap() map[string]int {
	if st.nRegs == len(st.regs) {
		st.regs = append(st.regs, map[string]int{})
	}
	st.nRegs++
	return st.regs[st.nRegs-1]
}

// finalMap returns an empty map for a skeleton's final registers. The
// caller holds mu.
func (sk *skeletons) finalMap() map[litmus.RegKey]litmus.Value {
	if sk.nFinals == len(sk.finals) {
		sk.finals = append(sk.finals, map[litmus.RegKey]litmus.Value{})
	}
	sk.nFinals++
	return sk.finals[sk.nFinals-1]
}

// carveRels returns k empty relations over n elements, and carveSets k
// empty sets. The caller holds mu.
func (sk *skeletons) carveRels(n, k int) []rel.Rel {
	bits := take(&sk.words, n*rel.Words(n)*k)
	return rel.Carve(&bits, take(&sk.rels, k), n, k)
}

func (sk *skeletons) carveSets(n, k int) []rel.Set {
	bits := take(&sk.words, rel.Words(n)*k)
	return rel.CarveSets(&bits, take(&sk.sets, k), n, k)
}

// Rels, Sets and FenceMaps make the store the events.Storage of its
// skeletons' static derivation (DeriveStaticIn), under mu: relations and
// sets are carved from its skeletons' part, and the maps are kept ones.
func (st *store) Rels(n, k int) []rel.Rel {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.skel.carveRels(n, k)
}

func (st *store) Sets(n, k int) []rel.Set {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.skel.carveSets(n, k)
}

func (st *store) FenceMaps() (ctrlCfence, fenceRel map[events.FenceKind]rel.Rel) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sk := &st.skel
	for len(sk.fences) < sk.nFences+2 {
		sk.fences = append(sk.fences, map[events.FenceKind]rel.Rel{})
	}
	sk.nFences += 2
	return sk.fences[sk.nFences-2], sk.fences[sk.nFences-1]
}

// take returns the next n elements of *chunk, at exact capacity, first
// replacing a chunk too full for them by one at least twice its size: the
// slices carved before keep the old chunk, and the store keeps the new
// one. The elements hold whatever the chunk's previous program left; the
// caller overwrites them.
func take[T any](chunk *[]T, n int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(2*cap(*chunk), n, 64))
	}
	l := len(*chunk)
	*chunk = (*chunk)[:l+n]
	return (*chunk)[l : l+n : l+n]
}

// tracer is the scratch of one thread's trace enumeration: the builder
// every run goes through, the read-value vector, the initial registers
// and the traces found so far. Nothing of it outlives the enumeration:
// keepTrace copies each trace into the program's store. tracers keeps
// them between enumerations, of any program.
type tracer struct {
	b       isa.Builder
	vals    []int
	regInit map[string]int
	out     []Trace
}

var tracers = sync.Pool{New: func() any { return &tracer{regInit: map[string]int{}} }}

// put clears the tracer and returns it to tracers.
func (tc *tracer) put() {
	tc.b.Reset()
	tc.vals = tc.vals[:0]
	clear(tc.regInit)
	clear(tc.out)
	tc.out = tc.out[:0]
	tracers.Put(tc)
}
