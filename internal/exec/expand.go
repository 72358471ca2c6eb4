package exec

import (
	"maps"
	"slices"
	"sync"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// The data-flow enumeration over one trace combination is a decision tree:
// first an rf choice per memory read (decRF), then, location by location,
// the coherence order as a sequence of choose-the-next-write decisions
// (decCO). Decisions are addressed by a flat level index with a static
// width per level, which is what lets SearchShards partition the tree by
// decision prefix while keeping the depth-first visit order — and hence
// the concatenated shard streams — identical to the sequential walk.

type decisionKind uint8

const (
	decRF decisionKind = iota // pick the write feeding read #read
	decCO                     // pick the next write of location #loc's order
)

type decision struct {
	kind decisionKind
	read int // index into expansion.reads (decRF)
	loc  int // index into expansion.locs (decCO)
}

// expansion is the assembled skeleton of one trace combination: the global
// event structure with its fixed relations (po, iico, rf-reg), plus the
// decision tree over it. It is immutable once built — except for the
// one-shot static derivation below — so any number of walkers, on any
// number of goroutines, may share it.
//
// Everything an expansion holds is carved from a store (its program's when
// the program keeps it, else its search's own, rewound once the walk over
// it ends), except the expansion itself, with the events.Skeleton header
// inside it: that is one allocation per skeleton, never recycled for
// another. Compiled cat evaluators key their per-skeleton state on the
// skeleton pointer (Execution.Skeleton), so a header reused for another
// skeleton would hand one combination's static values to another, and an
// evaluator that is never released keeps its last header alive, so a
// fresh header can never take that address.
type expansion struct {
	p         *Program
	st        *store          // what the expansion and its static state are carved from
	x         events.Skeleton // PO/IICO/RFReg set, static half derived at the first candidate
	finalRegs map[litmus.RegKey]litmus.Value
	baseMem   []locValue // final memory of single-write locations

	// staticOnce guards the skeleton's DeriveStatic: the static derived
	// state (sets, po-loc, fences, dependencies) is identical for every
	// candidate of the expansion, so it is computed once at the first
	// emitted candidate, and every candidate points at it (AdoptStatic).
	// sync.Once gives the emitting worker a happens-before edge on the
	// skeleton fields it then reads.
	staticOnce sync.Once

	// alone is the standalone copy of the skeleton that Candidate.Clone
	// gives its copies, made at the first Clone.
	aloneOnce sync.Once
	alone     *events.Skeleton
	aloneRegs map[litmus.RegKey]litmus.Value

	reads   []int   // memory-read event IDs, in event order
	rfCands [][]int // per read: feeding-write candidates (same loc+value)

	// Multi-write locations, in Program.locs order; their coherence order
	// is a decision.
	locs []coLoc

	decisions []decision
	widths    []int // static width of each decision level
}

// locValue is one location's final value.
type locValue struct {
	loc string
	val litmus.Value
}

// coLoc is one multi-write location of an expansion.
type coLoc struct {
	name   string
	writes []int // write event IDs, init first
}

// feasible is the pre-check run before a trace combination is assembled:
// it reports whether every memory read has a same-location, same-value
// write to read from — the initial write of its location, a write of its
// own trace, or a write of another chosen trace. This is exactly the
// condition under which every read of the assembled skeleton has an rf
// candidate. The first two sources are settled once per trace
// (Trace.open keeps the reads they leave), so only the open reads are
// matched here, against the other chosen traces, and nothing is allocated.
func feasible(allTraces [][]Trace, choice []int) bool {
	for tid := range allTraces {
	next:
		for _, r := range allTraces[tid][choice[tid]].open {
			for u := range allTraces {
				if u != tid && writes(allTraces[u][choice[u]].mem, r) {
					continue next
				}
			}
			return false
		}
	}
	return true
}

// assemble lays out, in x, the global event structure of one trace per
// thread: the initial writes first, one per location, then each thread's
// events with their IDs shifted, with po, iico and rf-reg set (nothing
// derived); it returns the chosen traces' final registers.
// The events, the relations and the register map are carved from st's
// skeletons. The caller has checked p.initErr.
func (p *Program) assemble(st *store, allTraces [][]Trace, choice []int, x *events.Skeleton) map[litmus.RegKey]litmus.Value {
	n := len(p.locs)
	for tid := range p.Threads {
		n += len(allTraces[tid][choice[tid]].Events)
	}
	sk := &st.skel
	st.mu.Lock()
	evs := take(&sk.evs, n)[:0]
	r := sk.carveRels(n, 5)
	finalRegs := sk.finalMap()
	st.mu.Unlock()
	x.PO, x.IICO, x.IICOAddr, x.IICOData, x.RFReg = r[0], r[1], r[2], r[3], r[4]
	for i, loc := range p.locs {
		evs = append(evs, events.Event{
			ID: i, Tid: events.InitTid, PC: -1,
			Kind: events.MemWrite, Loc: loc, Val: p.initVals[i],
		})
	}
	for tid := range p.Threads {
		tr := &allTraces[tid][choice[tid]]
		off := len(evs)
		for _, e := range tr.Events {
			e.ID += off
			evs = append(evs, e)
		}
		addShifted(x.IICO, tr.IICO, off)
		addShifted(x.IICOAddr, tr.IICOAddr, off)
		addShifted(x.IICOData, tr.IICOData, off)
		addShifted(x.RFReg, tr.RFReg, off)
		// Program order: same thread, strictly increasing PC. A thread's
		// events are one contiguous block, so only that block is scanned.
		for i := off; i < len(evs); i++ {
			for j := off; j < len(evs); j++ {
				if evs[i].PC < evs[j].PC {
					x.PO.Add(i, j)
				}
			}
		}
		for r, v := range tr.FinalRegs {
			finalRegs[litmus.RegKey{Tid: tid, Reg: r}] = p.Decode(v)
		}
	}
	x.Events = evs
	return finalRegs
}

// addShifted adds the trace-local edges to dst, shifted by off.
func addShifted(dst rel.Rel, edges [][2]int, off int) {
	for _, e := range edges {
		dst.Add(e[0]+off, e[1]+off)
	}
}

// newExpansion assembles the skeleton for one trace combination. It
// returns (nil, nil) when the combination is infeasible (some read has no
// same-value write to read from), having allocated nothing.
func (p *Program) newExpansion(st *store, allTraces [][]Trace, choice []int) (*expansion, error) {
	if p.initErr != nil {
		return nil, p.initErr
	}
	if !feasible(allTraces, choice) {
		return nil, nil
	}
	e := &expansion{p: p, st: st}
	e.finalRegs = p.assemble(st, allTraces, choice, &e.x)
	evs, nLocs := e.x.Events, len(p.locs)

	// Per location: its write count (the initial write included), its read
	// count, and cursors into the flat member array below.
	sk := &st.skel
	st.mu.Lock()
	cnt := take(&sk.ints, 4*nLocs)
	st.mu.Unlock()
	clear(cnt)
	nw, nr, wcur, rcur := cnt[:nLocs], cnt[nLocs:2*nLocs], cnt[2*nLocs:3*nLocs], cnt[3*nLocs:]
	nMem, nReads := nLocs, 0
	for tid := range p.Threads {
		for _, a := range allTraces[tid][choice[tid]].mem {
			nMem++
			if a.write {
				nw[a.loc]++
			} else {
				nr[a.loc]++
				nReads++
			}
		}
	}
	rfBound, nDec, nCo := 0, nReads, 0
	for l := range nw {
		nw[l]++ // the initial write
		rfBound += nr[l] * nw[l]
		if nw[l] > 1 {
			nDec += nw[l] - 1
			nCo++
		}
	}

	// Every int slice of the expansion is carved from one stretch of the
	// store, and so is each other slice.
	st.mu.Lock()
	ints := take(&sk.ints, nMem+nReads+rfBound+nDec)
	rfCands := take(&sk.intss, nReads)
	e.baseMem = take(&sk.mems, nLocs-nCo)[:0]
	e.locs = take(&sk.cos, nCo)[:0]
	e.decisions = take(&sk.decs, nDec)[:0]
	st.mu.Unlock()
	carve := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	// members holds location l's writes (event IDs, event order, so the
	// initial write first) and then its reads (indices into reads).
	members := carve(nMem)
	for l, b := 0, 0; l < nLocs; l++ {
		wcur[l], rcur[l] = b, b+nw[l]
		b += nw[l] + nr[l]
		members[wcur[l]] = l // the initial write's event ID
		wcur[l]++
	}
	reads := carve(nReads)[:0]
	off := nLocs
	for tid := range p.Threads {
		tr := &allTraces[tid][choice[tid]]
		for _, a := range tr.mem {
			if a.write {
				members[wcur[a.loc]] = off + a.ev
				wcur[a.loc]++
			} else {
				members[rcur[a.loc]] = len(reads)
				rcur[a.loc]++
				reads = append(reads, off+a.ev)
			}
		}
		off += len(tr.Events)
	}

	// rf candidates per read: same location, same value.
	rfFlat := carve(rfBound)[:0]
	e.reads, e.rfCands, e.widths = reads, rfCands, carve(nDec)[:0]
	for l, b := 0, 0; l < nLocs; l++ {
		ws := members[b : b+nw[l] : b+nw[l]]
		rs := members[b+nw[l] : b+nw[l]+nr[l] : b+nw[l]+nr[l]]
		b += nw[l] + nr[l]
		for _, ri := range rs {
			val, start := evs[reads[ri]].Val, len(rfFlat)
			for _, w := range ws {
				if evs[w].Val == val {
					rfFlat = append(rfFlat, w)
				}
			}
			if len(rfFlat) == start {
				// feasible rules this out; should it ever let such a
				// combination through, it still yields no skeleton.
				return nil, nil
			}
			rfCands[ri] = rfFlat[start:len(rfFlat):len(rfFlat)]
		}
		if len(ws) == 1 { // just the init write: co is empty, order fixed
			e.baseMem = append(e.baseMem, locValue{p.locs[l], p.Decode(evs[ws[0]].Val)})
			continue
		}
		e.locs = append(e.locs, coLoc{name: p.locs[l], writes: ws})
	}

	// The decision tree: every rf level, then every co level.
	for ri := range reads {
		e.decisions = append(e.decisions, decision{kind: decRF, read: ri})
		e.widths = append(e.widths, len(rfCands[ri]))
	}
	for li := range e.locs {
		m := len(e.locs[li].writes) - 1 // non-init writes to place
		for pos := 0; pos < m; pos++ {
			e.decisions = append(e.decisions, decision{kind: decCO, loc: li})
			e.widths = append(e.widths, m-pos)
		}
	}
	return e, nil
}

// walker holds the mutable decision state of one depth-first walk over an
// expansion's tree. Walkers are cheap; every worker builds its own.
type walker struct {
	e *expansion
	s *search

	rfPick []int    // per read: chosen feeding write
	orders [][]int  // per location: coherence order under construction
	used   [][]bool // per location: non-init writes already placed
}

func newWalker(e *expansion, s *search) *walker {
	w := &walker{
		e: e, s: s,
		rfPick: make([]int, len(e.reads)),
		orders: make([][]int, len(e.locs)),
		used:   make([][]bool, len(e.locs)),
	}
	for li := range e.locs {
		ws := e.locs[li].writes
		order := make([]int, 1, len(ws))
		order[0] = ws[0] // the initial write is first by convention
		w.orders[li] = order
		w.used[li] = make([]bool, len(ws)-1)
	}
	return w
}

// apply takes choice c at the given decision level, mutating the walker
// state; call undo after.
func (w *walker) apply(level, c int) {
	d := w.e.decisions[level]
	if d.kind == decRF {
		w.rfPick[d.read] = w.e.rfCands[d.read][c]
		return
	}
	// decCO: place the c-th not-yet-used non-init write next, counting in
	// ascending event-ID order — the canonical (lexicographic) ordering
	// that sharding relies on.
	ws := w.e.locs[d.loc].writes
	used := w.used[d.loc]
	pick := -1
	for i, cnt := 0, -1; i < len(used); i++ {
		if used[i] {
			continue
		}
		if cnt++; cnt == c {
			pick = i
			break
		}
	}
	used[pick] = true
	w.orders[d.loc] = append(w.orders[d.loc], ws[pick+1])
}

// undo reverts the state change of the matching apply.
func (w *walker) undo(level int) {
	d := w.e.decisions[level]
	if d.kind == decRF {
		return // rfPick is overwritten by the next apply
	}
	order := w.orders[d.loc]
	placed := order[len(order)-1]
	w.orders[d.loc] = order[:len(order)-1]
	ws := w.e.locs[d.loc].writes
	for i := 1; i < len(ws); i++ {
		if ws[i] == placed {
			w.used[d.loc][i-1] = false
			return
		}
	}
}

// walk explores the subtree below level depth-first, emitting a candidate
// at every leaf. The visit order is the lexicographic order of the choice
// vectors, independent of how the levels above were assigned.
func (w *walker) walk(level int) {
	if level == len(w.e.decisions) {
		w.emitCandidate()
		return
	}
	for c := 0; c < w.e.widths[level]; c++ {
		if !w.s.alive(false) {
			return
		}
		w.apply(level, c)
		w.walk(level + 1)
		w.undo(level)
		if w.s.stopped {
			return
		}
	}
}

// candSlot is the reusable candidate arena of one search. Every candidate
// the search yields is materialised into the same Execution and final
// state, over rf, co and dynamic relation buffers carved from the slot's
// backing — steady-state emission allocates nothing but the small
// Candidate header. The header is deliberately NOT part of the slot: it
// carries the emit-time generation, and stamping it into reused memory
// would overwrite a retained header's stamp, making Candidate.Expired
// always agree with the slot. The generation counter advances at every
// refill, so a candidate retained past its yield is detectably stale
// instead of silently corrupt. A slot belongs to exactly one search
// goroutine; the parallel path gives each shard worker its own search,
// hence its own slot. A finished search puts its slot back in slots for
// the next search to take (DESIGN.md §18.1): its candidates expire there,
// and a search of the same universe size reuses the buffers as they are.
type candSlot struct {
	x     events.Execution
	state litmus.State
	exp   *expansion // the expansion of the latest candidate
	gen   uint64
	n     int       // the universe size rels are carved for; -1 before any
	bits  []uint64  // the backing rels are carved from
	rels  []rel.Rel // rf, co, then the dynamic buffers
}

// slots keeps the candidate slots of finished searches.
var slots = sync.Pool{New: func() any { return &candSlot{n: -1} }}

// release ends the slot's search: every candidate it yielded expires, the
// slot lets go of the skeleton it last held, keeping its buffers, and
// goes back to slots.
func (sl *candSlot) release() {
	sl.gen++
	sl.x.Skeleton, sl.state.Regs, sl.exp = nil, nil, nil
	clear(sl.state.Mem) // the next search's program may have other locations
	slots.Put(sl)
}

// deriveStatic derives the skeleton's static state into the store it was
// carved from, once, at its first candidate.
func (e *expansion) deriveStatic() { e.x.DeriveStaticIn(e.st) }

// standalone returns a copy of the skeleton and its final registers that
// owes nothing to any store, for Candidate.Clone: made at the
// first call, re-derived from copies of the base relations, and shared by
// every later one.
func (e *expansion) standalone() (*events.Skeleton, map[litmus.RegKey]litmus.Value) {
	e.aloneOnce.Do(func() {
		x := &events.Skeleton{
			Events: slices.Clone(e.x.Events), PO: e.x.PO.Clone(), IICO: e.x.IICO.Clone(),
			IICOAddr: e.x.IICOAddr.Clone(), IICOData: e.x.IICOData.Clone(), RFReg: e.x.RFReg.Clone(),
		}
		x.DeriveStatic()
		e.alone, e.aloneRegs = x, maps.Clone(e.finalRegs)
	})
	return e.alone, e.aloneRegs
}

// emitCandidate materialises the fully-decided assignment into the search's
// candidate slot and hands it to the search. The candidate points at the
// skeleton (AdoptStatic); only rf, co and the dynamic derivation
// downstream of them are rebuilt, in place, per candidate — all of it, or
// none for a deferred search, whose consumer derives what it reads. The
// previous candidate's buffers are overwritten: this is exactly the
// zero-copy yield contract documented on Candidate.
func (w *walker) emitCandidate() {
	e := w.e
	e.staticOnce.Do(e.deriveStatic)
	sl := w.s.candidateSlot()
	sl.exp = e
	cx := &sl.x
	if n := e.x.N(); sl.n != n {
		// First candidate, or the universe size changed with the trace
		// combination: re-carve the buffers from the slot's backing.
		sl.rels = rel.Carve(&sl.bits, sl.rels, n, 2+events.DynBuffers)
		cx.RF, cx.CO = sl.rels[0], sl.rels[1]
		cx.AdoptDynamicBuffers(sl.rels[2:])
		sl.n = n
	} else {
		cx.RF.Clear()
		cx.CO.Clear()
	}
	for i, r := range e.reads {
		cx.RF.Add(w.rfPick[i], r)
	}
	if sl.state.Mem == nil {
		sl.state.Mem = make(map[string]litmus.Value, len(e.p.locs))
	}
	// Every location is either single-write (baseMem) or ordered below, so
	// each emission overwrites the full key set — no clearing needed.
	finalMem := sl.state.Mem
	for _, m := range e.baseMem {
		finalMem[m.loc] = m.val
	}
	for li := range e.locs {
		order := w.orders[li]
		cx.CO.AddChain(order) // each write's row: the writes after it
		finalMem[e.locs[li].name] = e.p.Decode(e.x.Events[order[len(order)-1]].Val)
	}
	cx.AdoptStatic(&e.x) // forgets the previous candidate's derivation
	cx.DeriveDemand(w.s.derive)
	sl.state.Regs = e.finalRegs
	sl.gen++
	w.s.emit(&Candidate{X: cx, State: &sl.state, slot: sl, gen: sl.gen})
}
