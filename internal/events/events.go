package events

import (
	"fmt"
	"slices"
	"strings"

	"herdcats/internal/rel"
)

// Kind classifies an event's action.
type Kind uint8

const (
	// MemRead is a read from a memory location (Rx=v).
	MemRead Kind = iota
	// MemWrite is a write to a memory location (Wx=v).
	MemWrite
	// RegRead is a read from a register (Rr1=v).
	RegRead
	// RegWrite is a write to a register (Wr1=v).
	RegWrite
	// Branch is a branching decision being made.
	Branch
	// Fence is a memory barrier; its flavour is Event.Fence.
	Fence
)

// String returns a one-letter tag for the kind.
func (k Kind) String() string {
	switch k {
	case MemRead:
		return "R"
	case MemWrite:
		return "W"
	case RegRead:
		return "Rreg"
	case RegWrite:
		return "Wreg"
	case Branch:
		return "branch"
	case Fence:
		return "fence"
	}
	return "?"
}

// FenceKind names a barrier flavour. The set is the union of the
// architectures modelled in the paper (Fig. 17 and Sec. 4.7).
type FenceKind string

// Fence flavours used by the models of the paper.
const (
	FenceNone   FenceKind = ""
	FenceSync   FenceKind = "sync"   // Power full fence
	FenceLwsync FenceKind = "lwsync" // Power lightweight fence
	FenceIsync  FenceKind = "isync"  // Power control fence
	FenceEieio  FenceKind = "eieio"  // Power write-write barrier
	FenceDMB    FenceKind = "dmb"    // ARM full fence
	FenceDSB    FenceKind = "dsb"    // ARM full fence
	FenceISB    FenceKind = "isb"    // ARM control fence
	FenceDMBST  FenceKind = "dmb.st" // ARM write-write barrier
	FenceDSBST  FenceKind = "dsb.st" // ARM write-write barrier
	FenceMFence FenceKind = "mfence" // TSO full fence
)

// MemOrder is a C11 memory-order annotation on an access — the Sec. 4.9
// extension ("types of events"): the paper handles one access type per
// model; the C dialect lifts that, carrying relaxed/acquire/release/seq_cst
// per access.
type MemOrder uint8

// C11 memory orders (the release-acquire fragment plus relaxed; seq_cst is
// treated as release-and-acquire, its synchronising part).
const (
	OrderPlain MemOrder = iota // non-atomic / assembly access
	OrderRelaxed
	OrderAcquire
	OrderRelease
	OrderAcqRel
	OrderSeqCst
)

// Acquires reports whether a read with this order synchronises.
func (o MemOrder) Acquires() bool {
	return o == OrderAcquire || o == OrderAcqRel || o == OrderSeqCst
}

// Releases reports whether a write with this order synchronises.
func (o MemOrder) Releases() bool {
	return o == OrderRelease || o == OrderAcqRel || o == OrderSeqCst
}

// String names the order as in C11 source.
func (o MemOrder) String() string {
	switch o {
	case OrderRelaxed:
		return "relaxed"
	case OrderAcquire:
		return "acquire"
	case OrderRelease:
		return "release"
	case OrderAcqRel:
		return "acq_rel"
	case OrderSeqCst:
		return "seq_cst"
	}
	return "plain"
}

// InitTid is the pseudo-thread holding the initial writes. By convention
// (Sec. 3) every location has a fictitious initial write that is co-before
// every other write to that location.
const InitTid = -1

// Event is one action of a candidate execution. Events are identified by a
// dense ID (their index in Execution.Events).
type Event struct {
	ID    int
	Tid   int // thread, or InitTid for initial writes
	PC    int // instruction index within the thread (po position)
	Kind  Kind
	Loc   string    // memory location (MemRead/MemWrite) or register name (RegRead/RegWrite)
	Val   int       // value read or written
	Fence FenceKind // for Kind == Fence
	Order MemOrder  // C11 memory order (OrderPlain for assembly dialects)
}

// IsMem reports whether the event is a memory access.
func (e Event) IsMem() bool { return e.Kind == MemRead || e.Kind == MemWrite }

// IsInit reports whether the event is a fictitious initial write.
func (e Event) IsInit() bool { return e.Tid == InitTid }

// String renders an event in the paper's style, e.g. "a: Wx=1".
func (e Event) String() string {
	name := fmt.Sprintf("e%d", e.ID)
	switch e.Kind {
	case MemRead, RegRead:
		return fmt.Sprintf("%s: R%s=%d", name, e.Loc, e.Val)
	case MemWrite, RegWrite:
		return fmt.Sprintf("%s: W%s=%d", name, e.Loc, e.Val)
	case Branch:
		return name + ": branch"
	case Fence:
		return fmt.Sprintf("%s: %s", name, e.Fence)
	}
	return name + ": ?"
}

// Skeleton is the part of a candidate execution that the chosen traces
// fix: the events, program order, the intra-instruction causality iico and
// the register read-from used to derive dependencies (Sec. 5), and
// everything DeriveStatic computes from them — sets, po-loc, fences,
// dependencies. Only rf and co vary over a skeleton (Sec. 8.3), and they
// live in the Execution that points at it.
type Skeleton struct {
	Events []Event

	// Base relations, over all events.
	PO       rel.Rel // program order: same thread, increasing PC (inter-instruction)
	IICO     rel.Rel // intra-instruction causality order
	IICOAddr rel.Rel // iico edges entering a memory access through its address port
	IICOData rel.Rel // iico edges entering a memory write through its value port
	RFReg    rel.Rel // register read-from (deterministic per thread)

	// Event sets (filled by DeriveStatic).
	All, R, W, M, B, RegEvents rel.Set

	// Static derived relations (filled by DeriveStatic).
	MemPO       rel.Rel               // po over memory events: cat's po builtin
	POLoc       rel.Rel               // po ∩ same location, over memory events
	IntraThread rel.Rel               // same-thread event pairs (incl. the init pseudo-thread)
	Addr        rel.Rel               // address dependencies (Fig. 22)
	Data        rel.Rel               // data dependencies
	Ctrl        rel.Rel               // control dependencies
	CtrlCfence  map[FenceKind]rel.Rel // ctrl+cfence per control-fence flavour
	FenceRel    map[FenceKind]rel.Rel // memory pairs separated by the given fence

	// syncs records that the event structure has both a releasing write
	// and an acquiring read: without them sw is empty for every rf, so
	// the derivation skips it.
	syncs bool

	// emptyRel is a shared all-empty relation handed out by read-only
	// accessors (Fences on a miss, CtrlCfenceAll with no control fences)
	// instead of allocating a fresh one per call. Filled by DeriveStatic;
	// callers must never mutate it.
	emptyRel    rel.Rel
	hasEmptyRel bool

	// ctrlCfenceAll caches the union of CtrlCfence over all flavours —
	// static per skeleton, so computed once by DeriveStatic.
	ctrlCfenceAll    rel.Rel
	hasCtrlCfenceAll bool
}

// Execution is a candidate execution (E, po, rf, co) (Sec. 4.1): a
// skeleton, which may be shared with every other candidate over the same
// traces, and the memory read-from and coherence chosen over it, with the
// relations derived from them.
//
// After populating the skeleton's base relations, RF and CO, call Derive
// to compute every derived relation. Architectures (ppo, fences, prop)
// consume the derived fields.
//
// Derivation splits in two, one half per type: DeriveStatic computes the
// skeleton's derived state (invariant across every rf/co choice over it),
// DeriveDynamic the relations downstream of the enumerated rf and co. The
// enumerator derives each skeleton once and points every candidate of it
// there (AdoptStatic); Derive runs both halves for standalone executions.
// The dynamic half is demand-driven underneath (DeriveDemand): a consumer
// that reads only some dynamic relations may derive only those.
//
// A consumer reads the skeleton's fields through the candidate and must
// never write them: every candidate of the skeleton shares them.
type Execution struct {
	*Skeleton

	RF rel.Rel // memory read-from (chosen by the enumerator)
	CO rel.Rel // coherence: per-location total order of writes

	// Dynamic derived relations (filled by Derive, DeriveDynamic or
	// DeriveDemand; see Dyn for which of them a candidate holds).
	FR       rel.Rel // from-read: rf⁻¹ ; co
	Com      rel.Rel // co ∪ rf ∪ fr (memory events)
	SW       rel.Rel // synchronises-with: release-write -> acquire-read rf edges
	RFE, RFI rel.Rel
	COE, COI rel.Rel
	FRE, FRI rel.Rel

	memRF rel.Rel // cached RF.Restrict(W, R), valid when derived has DynRF

	// derived marks the dynamic relations computed for the current rf and
	// co. AdoptStatic, DeriveDynamic and a buffer reallocation clear
	// it, so nothing derived for one candidate survives into the next.
	derived Dyn

	// dynN records the universe size the dynamic relation buffers (FR, Com,
	// SW, the splits, memRF) were last allocated for; DeriveDemand reuses
	// them in place when it matches instead of allocating afresh.
	dynN int
}

// NewExecution returns an execution shell over n events, with a skeleton
// of its own, and empty relations, all seven carved from one allocation.
func NewExecution(n int) *Execution {
	r := rel.NewN(n, 7)
	return &Execution{
		Skeleton: &Skeleton{PO: r[0], IICO: r[1], IICOAddr: r[2], IICOData: r[3], RFReg: r[4]},
		RF:       r[5],
		CO:       r[6],
	}
}

// N returns the number of events.
func (s *Skeleton) N() int { return len(s.Events) }

// MemRF returns rf restricted to memory events. Once derived (DynRF) the
// restriction is cached, so hot callers (models' prop functions, cat's rf
// builtin) don't re-allocate it per candidate.
func (x *Execution) MemRF() rel.Rel {
	if x.derived&DynRF != 0 {
		return x.memRF
	}
	return x.RF.Restrict(x.W, x.R)
}

// Derive computes every derived relation and set. It must be called after
// the skeleton's Events, PO, IICO, IICOAddr, IICOData and RFReg, and RF
// and CO, are populated, and before the execution is handed to a model.
func (x *Execution) Derive() {
	x.DeriveStatic()
	x.DeriveDynamic()
}

// DeriveStatic computes the derived state determined by the event structure
// alone — sets, po over memory events, po-loc, same-thread pairs, fence
// relations and dependencies. It is invariant across every rf/co
// assignment over the skeleton, so the enumerator runs it once per
// skeleton, and every candidate of it points at the result (AdoptStatic).
//
// Every set is carved from one allocation and every relation from another,
// filled by the in-place rel kernels; intermediate relations come from a
// third, dropped on return. The buffers belong to this skeleton alone.
func (x *Skeleton) DeriveStatic() { x.DeriveStaticIn(freshStorage{}) }

// Storage is what DeriveStaticIn takes a skeleton's static state from:
// k empty relations or sets over n events at a time, for its relations,
// their intermediates and its sets, and the two maps of fence relations,
// CtrlCfence and FenceRel, empty.
type Storage interface {
	Rels(n, k int) []rel.Rel
	Sets(n, k int) []rel.Set
	FenceMaps() (ctrlCfence, fenceRel map[FenceKind]rel.Rel)
}

// freshStorage is the Storage that allocates everything afresh.
type freshStorage struct{}

func (freshStorage) Rels(n, k int) []rel.Rel { return rel.NewN(n, k) }
func (freshStorage) Sets(n, k int) []rel.Set { return rel.NewSets(n, k) }
func (freshStorage) FenceMaps() (map[FenceKind]rel.Rel, map[FenceKind]rel.Rel) {
	return make(map[FenceKind]rel.Rel, 2), map[FenceKind]rel.Rel{}
}

// DeriveStaticIn is DeriveStatic with its storage taken from a: an owner
// that keeps the skeleton's storage (exec's program store) passes it, and
// the static state lives as long as that storage does.
func (x *Skeleton) DeriveStaticIn(a Storage) {
	n := x.N()
	// The threads (the init pseudo-thread included) and fence flavours
	// present, so the set and relation counts are known up front.
	tids := make([]int, 0, 8)
	kinds := make([]FenceKind, 0, 4)
	acquires, releases := false, false
	for _, e := range x.Events {
		if !slices.Contains(tids, e.Tid) {
			tids = append(tids, e.Tid)
		}
		if e.Kind == Fence && !slices.Contains(kinds, e.Fence) {
			kinds = append(kinds, e.Fence)
		}
		acquires = acquires || e.Kind == MemRead && e.Order.Acquires()
		releases = releases || e.Kind == MemWrite && e.Order.Releases()
	}
	x.syncs = acquires && releases

	sets := a.Sets(n, 6+len(tids)+len(kinds))
	x.All, x.R, x.W, x.M, x.B, x.RegEvents = sets[0], sets[1], sets[2], sets[3], sets[4], sets[5]
	tidSets, fenceSets := sets[6:6+len(tids)], sets[6+len(tids):]
	for _, e := range x.Events {
		x.All.Add(e.ID)
		switch e.Kind {
		case MemRead:
			x.R.Add(e.ID)
			x.M.Add(e.ID)
		case MemWrite:
			x.W.Add(e.ID)
			x.M.Add(e.ID)
		case RegRead, RegWrite:
			x.RegEvents.Add(e.ID)
		case Branch:
			x.B.Add(e.ID)
		case Fence:
			fenceSets[slices.Index(kinds, e.Fence)].Add(e.ID)
		}
		tidSets[slices.Index(tids, e.Tid)].Add(e.ID)
	}

	rels := a.Rels(n, 10+len(kinds))
	x.POLoc, x.IntraThread, x.Addr, x.Data, x.Ctrl = rels[0], rels[1], rels[2], rels[3], rels[4]
	x.CtrlCfence, x.FenceRel = a.FenceMaps()
	x.CtrlCfence[FenceIsync], x.CtrlCfence[FenceISB] = rels[5], rels[6]
	x.emptyRel, x.hasEmptyRel = rels[7], true
	x.ctrlCfenceAll, x.MemPO = rels[8], rels[9]
	scratch := a.Rels(n, 5)

	poRestrict(x.MemPO, x.PO, x.M, x.M)

	// po-loc: same-location memory pairs in program order.
	for i, a := range x.Events {
		if !a.IsMem() {
			continue
		}
		for j, b := range x.Events {
			if b.IsMem() && a.Loc == b.Loc && x.PO.Has(i, j) {
				x.POLoc.Add(i, j)
			}
		}
	}

	// Same-thread pairs, one block per thread (the init pseudo-thread
	// included): the mask DeriveDynamic splits rf/co/fr against, replacing
	// a per-candidate walk over their pair lists.
	for _, s := range tidSets {
		x.IntraThread.UnionCross(s, s)
	}

	// Fence relations: memory pairs (e1,e2) with a fence of the given kind
	// in between in program order, i.e. po|M×F ; po|F×M over that kind's
	// fence events F.
	for i, kind := range kinds {
		fr := rels[10+i]
		fr.SeqInto(poRestrict(scratch[0], x.PO, x.M, fenceSets[i]), poRestrict(scratch[1], x.PO, fenceSets[i], x.M))
		x.FenceRel[kind] = fr
	}

	x.deriveDependencies(scratch, kinds, fenceSets)

	// The union of ctrl+cfence over all flavours, cached for
	// CtrlCfenceAll; like the shared empty relation behind Fences misses,
	// it is static per skeleton, so hot per-candidate callers (model fence
	// lookups) stop allocating.
	for _, r := range x.CtrlCfence {
		x.ctrlCfenceAll.UnionInto(r)
	}
	x.hasCtrlCfenceAll = true
}

// poRestrict overwrites dst with po restricted to src × tgt and returns it.
func poRestrict(dst, po rel.Rel, src, tgt rel.Set) rel.Rel {
	dst.CopyFrom(po)
	dst.RestrictInPlace(src, tgt)
	return dst
}

// AdoptStatic points x at the derived skeleton s, over which x's RF and
// CO are chosen. It forgets every dynamic relation derived before, since
// they belong to the previous rf and co: derive what is read after
// (DeriveDemand or DeriveDynamic).
func (x *Execution) AdoptStatic(s *Skeleton) {
	x.Skeleton, x.derived = s, 0
}

// Dyn is a set of the dynamic derived relations, one bit per relation:
// what a consumer of a candidate reads downstream of rf and co. It names
// the same relations as cat's dynamic builtins.
type Dyn uint16

// The dynamic relations. DynRF is rf over memory events (MemRF); DynCO is
// co itself, a base relation with nothing to derive, kept so a demand can
// name every builtin it reads.
const (
	DynRF Dyn = 1 << iota
	DynRFE
	DynRFI
	DynSW
	DynCO
	DynCOE
	DynCOI
	DynFR
	DynFRE
	DynFRI
	DynCom

	// DynAll is every dynamic relation.
	DynAll = DynCom<<1 - 1
)

// closure adds to d the relations its members are computed from: fr, sw
// and the rf splits read rf; com and the fr splits read fr.
func (d Dyn) closure() Dyn {
	if d&(DynCom|DynFRE|DynFRI) != 0 {
		d |= DynFR
	}
	if d&(DynFR|DynSW|DynRFE|DynRFI|DynCom) != 0 {
		d |= DynRF
	}
	return d
}

// DynBuffers is the number of dynamic relation buffers an execution
// derives into (AdoptDynamicBuffers).
const DynBuffers = 10

// AdoptDynamicBuffers makes bufs, DynBuffers empty relations over x's
// events, the buffers DeriveDemand derives into, and forgets what was
// derived. A caller that keeps an execution's storage across universe
// sizes carves them itself instead of having DeriveDemand allocate them.
func (x *Execution) AdoptDynamicBuffers(bufs []rel.Rel) {
	x.FR, x.Com, x.SW = bufs[0], bufs[1], bufs[2]
	x.RFE, x.RFI = bufs[3], bufs[4]
	x.COE, x.COI = bufs[5], bufs[6]
	x.FRE, x.FRI = bufs[7], bufs[8]
	x.memRF = bufs[9]
	x.dynN, x.derived = bufs[0].N(), 0
}

// DeriveDynamic computes every relation downstream of the enumerated rf
// and co: fr, com, sw and the internal/external splits. It requires the
// static half (DeriveStatic or AdoptStatic) to be in place. Every output
// relation is freshly allocated, so references to the previous derivation
// stay valid; the enumeration hot loop uses DeriveDemand instead.
func (x *Execution) DeriveDynamic() {
	x.dynN = -1 // force fresh buffers: callers may hold the old ones
	x.DeriveDemand(DynAll)
}

// DeriveDemand is the one dynamic derivation: it computes the relations
// of d, and those they are computed from, that are not yet derived for the
// current rf and co, and leaves the other dynamic fields as they are. It
// requires the static half (DeriveStatic or AdoptStatic). sw is computed
// only when the skeleton has a releasing write and an acquiring read;
// otherwise it is cleared.
//
// The buffers are recomputed in place when the universe size matches the
// previous derivation's; otherwise every one is allocated at once, even
// for an empty d (AdoptDynamicBuffers lets a caller carve them instead).
// Nothing else is allocated: a warm derivation allocates nothing. The
// caller must not hold references to x's dynamic relations across calls:
// they are overwritten.
func (x *Execution) DeriveDemand(d Dyn) {
	if n := x.N(); x.dynN != n {
		x.AdoptDynamicBuffers(rel.NewN(n, DynBuffers))
	}
	d = d.closure() &^ x.derived
	if d == 0 {
		return
	}
	x.derived |= d

	if d&DynRF != 0 { // rf over memory events, cached for MemRF
		x.memRF.CopyFrom(x.RF)
		x.memRF.RestrictInPlace(x.W, x.R)
	}
	if d&DynFR != 0 { // fr = rf⁻¹ ; co: a read's row is its write's co row
		x.FR.InvSeqInto(x.memRF, x.CO)
	}
	if d&DynCom != 0 {
		x.Com.CopyFrom(x.CO)
		x.Com.UnionInto(x.memRF)
		x.Com.UnionInto(x.FR)
	}
	if d&DynSW != 0 {
		// synchronises-with: rf edges from releasing writes to acquiring
		// reads (the C11 extension; empty for assembly dialects).
		x.SW.Clear()
		if x.syncs {
			x.memRF.ForEachPair(func(w, r int) {
				if x.Events[w].Order.Releases() && x.Events[r].Order.Acquires() {
					x.SW.Add(w, r)
				}
			})
		}
	}

	// Internal/external splits against the same-thread mask.
	x.split(d, DynRFE, DynRFI, x.RFE, x.RFI, x.memRF)
	x.split(d, DynCOE, DynCOI, x.COE, x.COI, x.CO)
	x.split(d, DynFRE, DynFRI, x.FRE, x.FRI, x.FR)
}

// Fences returns the fence relation for the given kind. A miss returns the
// skeleton's shared empty relation (callers must not mutate it); before
// DeriveStatic has run it falls back to allocating one.
func (x *Skeleton) Fences(kind FenceKind) rel.Rel {
	if r, ok := x.FenceRel[kind]; ok {
		return r
	}
	if x.hasEmptyRel {
		return x.emptyRel
	}
	return rel.New(x.N())
}

// split overwrites the parts of r that d demands: external (distinct
// threads, tag e) and internal (same thread, tag i), by masking against
// the precomputed same-thread relation.
func (x *Execution) split(d, e, i Dyn, external, internal, r rel.Rel) {
	if d&e != 0 {
		external.CopyFrom(r)
		external.DiffInto(x.IntraThread)
	}
	if d&i != 0 {
		internal.CopyFrom(r)
		internal.InterInto(x.IntraThread)
	}
}

// deriveDependencies computes addr, data, ctrl and ctrl+cfence per Fig. 22:
// each is a register data-flow chain dd-reg = (rf-reg ∪ iico)+ starting at a
// memory read, never passing through a memory access, and classified by the
// port its last edge enters (address port, value port, or a branch). The
// outputs must already be allocated (DeriveStatic does); scratch holds
// five relations to work in, and fenceSets[i] the fence events of flavour
// kinds[i].
func (x *Skeleton) deriveDependencies(scratch []rel.Rel, kinds []FenceKind, fenceSets []rel.Set) {
	g, chains, intoBranch, t1, t2 := scratch[0], scratch[1], scratch[2], scratch[3], scratch[4]
	g.CopyFrom(x.RFReg)
	g.UnionInto(x.IICO)
	// Chains whose intermediate nodes are register events: an edge may start
	// anywhere but must end at a register event to be continued. The
	// closure contains its one-step paths, so it is every path a → reg-event.
	chains.CopyFrom(g)
	chains.RestrictInPlace(x.All, x.RegEvents)
	chains.PlusInPlace()

	// addr/data are dd-reg chains whose final edge enters the target through
	// the address (resp. value) port.
	x.Addr.SeqInto(chains, x.IICOAddr)
	x.Addr.RestrictInPlace(x.R, x.M)
	x.Data.SeqInto(chains, x.IICOData)
	x.Data.RestrictInPlace(x.R, x.W)

	// dd-reg from a memory read r to a final edge target t: either a single
	// edge r→t, or r →(chains)→ q →(g)→ t. ctrl: dd-reg into a branch
	// event, then po to a later memory event.
	intoBranch.SeqInto(chains, g)
	intoBranch.UnionInto(g)
	intoBranch.RestrictInPlace(x.R, x.B)
	x.Ctrl.SeqInto(intoBranch, x.PO)
	x.Ctrl.RestrictInPlace(x.R, x.M)

	// ctrl+cfence: dd-reg into a branch b, a control fence f po-after b,
	// memory events po-after f. Computed per control-fence flavour, as
	// dd-reg ; po|B×F ; po|F×M over that flavour's fence events F.
	for kind, out := range x.CtrlCfence {
		i := slices.Index(kinds, kind)
		if i < 0 {
			continue // no such fence: the relation stays empty
		}
		step := g // g is spent
		step.SeqInto(poRestrict(t1, x.PO, x.B, fenceSets[i]), poRestrict(t2, x.PO, fenceSets[i], x.M))
		out.SeqInto(intoBranch, step)
		out.RestrictInPlace(x.R, x.M)
	}
}

// CtrlCfenceAll returns the union of ctrl+cfence over all control-fence
// flavours (isync on Power, isb on ARM). After DeriveStatic the union is
// cached on the skeleton and shared (callers must not mutate it); before
// that it is computed afresh.
func (x *Skeleton) CtrlCfenceAll() rel.Rel {
	if x.hasCtrlCfenceAll {
		return x.ctrlCfenceAll
	}
	out := rel.New(x.N())
	for _, r := range x.CtrlCfence {
		out.UnionInto(r)
	}
	return out
}

// String renders the execution's events and communications for debugging.
func (x *Execution) String() string {
	var b strings.Builder
	for _, e := range x.Events {
		fmt.Fprintf(&b, "T%d %s\n", e.Tid, e)
	}
	fmt.Fprintf(&b, "rf: %v\nco: %v\n", x.MemRF(), x.CO)
	return b.String()
}
