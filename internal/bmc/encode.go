package bmc

import (
	"errors"
	"fmt"

	"herdcats/internal/cat"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/sat"
)

// ModelID selects the memory model to encode. Each names a cat model,
// which the encoding runs over the circuit (cat.Lower).
type ModelID uint8

// Encodable models.
const (
	// SC is Fig. 21's Sequential Consistency (sc.cat).
	SC ModelID = iota
	// TSO is Fig. 21's Total Store Order (tso.cat).
	TSO
	// Power is the paper's Power model (power.cat: Fig. 5 + 17 + 18 +
	// 25), the "present model" row of Tab. XI.
	Power
	// PowerCAV is the multi-event-style strengthened Power model (our
	// CAV 2012 stand-in; see package multi), the comparison row of
	// Tab. XI: power-cav.cat, power.cat whose ii0 also holds the
	// propagation-ordering term bigrdw.
	PowerCAV
	// ARM is the proposed ARM model of Tab. VII (arm.cat).
	ARM
)

func (m ModelID) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case Power:
		return "Power"
	case PowerCAV:
		return "Power multi-event (CAV12)"
	case ARM:
		return "ARM"
	}
	return "?"
}

// Instance is an encoded reachability problem: is the test's final
// condition observable in some model-valid execution? Its model-free part
// (the trace choice, rf, co, fr and the condition) is built once. A model
// is lowered onto the same circuit, either unguarded (Encode: a
// single-model instance) or, on an instance from EncodeShared, behind an
// activation literal of its own, so that one instance answers for every
// model a comparison asks about (DESIGN.md §16).
//
// An instance's solver, circuit and maps are a store taken from a pool;
// Release puts them back for a later instance, after which the instance
// answers nothing: Decide returns an error, and Solve, Stats and Clauses
// panic.
type Instance struct {
	st   *store // nil once released
	s    *sat.Solver
	c    *circuit
	prog *exec.Program
	asm  *exec.Assembled
	own  bool // prog was compiled by Encode: Release releases it too

	traces [][]exec.Trace
	sel    [][]sat.Lit // per-thread one-hot trace choice

	memID []int       // skeleton event IDs of memory events (init writes first)
	midx  map[int]int // inverse of memID
	m     int

	rfVar map[[2]int]sat.Lit // (writeIdx, readIdx) -> variable
	coPos map[[2]int]sat.Lit // (w1Idx, w2Idx), w1<w2 by index, same loc

	// Core symbolic relations.
	rfRel, coRel, frRel relExpr

	// models holds each model Decide has lowered, with its activation
	// literal; nil on a single-model instance.
	models map[*cat.Compiled]lowered
}

// lowered is a model on a shared instance: its activation literal, or
// the error its lowering returned.
type lowered struct {
	act sat.Lit
	err error
}

// Stats reports encoding size.
func (in *Instance) Stats() (vars int, events int) {
	return in.live().NumVars(), in.m
}

// Clauses reports the stored clauses of the encoding (see
// sat.Solver.NumClauses): read it before Solve for the encoding's size.
func (in *Instance) Clauses() int { return in.live().NumClauses() }

// errReleased is Decide's answer on a released instance.
var errReleased = errors.New("bmc: instance used after Release")

// live returns the instance's solver, panicking once it is released.
func (in *Instance) live() *sat.Solver {
	if in.st == nil {
		panic(errReleased)
	}
	return in.s
}

// Release puts the instance's storage back in the pool for a later
// instance to take, and releases the program Encode compiled for it. The
// instance must not be used again.
func (in *Instance) Release() {
	in.live()
	in.st.put()
	if in.own {
		in.prog.Release()
	}
	*in = Instance{}
}

// Encode compiles the reachability of test's condition under the model.
func Encode(test *litmus.Test, model ModelID) (*Instance, error) {
	prog, err := exec.Compile(test)
	if err != nil {
		return nil, err
	}
	m, err := model.compiled()
	if err != nil {
		prog.Release()
		return nil, err
	}
	in, err := encode(prog, m)
	if err != nil {
		prog.Release()
		return nil, err
	}
	in.own = true
	return in, nil
}

// encode compiles the reachability of prog's condition under a compiled
// cat model, lowered over the circuit. It is exact for the builtin models
// (DESIGN.md §16), not for every cat program. The model is the instance's
// only one: its activation literal is the circuit's constant true, so
// each guard vanishes. The condition comes after the model: asserted
// first, its unit would simplify the model's clauses at the top level
// and change the sizes Tab. X and XI report.
func encode(prog *exec.Program, model *cat.Compiled) (*Instance, error) {
	in, err := skeleton(prog)
	if err != nil {
		return nil, err
	}
	if err := in.lower(model, in.c.trueLit); err != nil {
		in.Release()
		return nil, err
	}
	if err := in.assertCondition(); err != nil {
		in.Release()
		return nil, err
	}
	return in, nil
}

// EncodeShared encodes the model-free part of prog's reachability problem
// and asserts its condition, for Decide to lower models onto. Solve on it
// answers with no model at all. On a program a crosscheck comparison
// shares, the encoding and the comparison's walk enumerate the thread
// traces once between them (Program.ThreadTraces).
func EncodeShared(prog *exec.Program) (*Instance, error) {
	in, err := skeleton(prog)
	if err != nil {
		return nil, err
	}
	if err := in.assertCondition(); err != nil {
		in.Release()
		return nil, err
	}
	in.models = in.st.models
	return in, nil
}

// Decide answers reachability under model on an instance from
// EncodeShared. The first Decide of a model lowers it behind a fresh
// activation literal act; each answers Solve(act), so no other model's
// assertions take part.
func (in *Instance) Decide(model ModelID) (bool, error) {
	if in.st == nil {
		return false, errReleased
	}
	if in.models == nil {
		return false, fmt.Errorf("bmc: Decide(%v) on a single-model instance", model)
	}
	cm, err := model.compiled()
	if err != nil {
		return false, err
	}
	return in.decide(cm)
}

// decide is Decide under a compiled cat model.
func (in *Instance) decide(model *cat.Compiled) (bool, error) {
	lm, ok := in.models[model]
	if !ok {
		lm.act = sat.Lit(in.s.NewVar())
		lm.err = in.lower(model, lm.act)
		in.models[model] = lm
	}
	if lm.err != nil {
		return false, lm.err
	}
	return in.s.Solve(lm.act), nil
}

// skeleton builds an instance's model-free part: the trace selectors, rf
// and co variables, and fr. It takes its storage from the pool, and puts
// it back if it fails.
func skeleton(prog *exec.Program) (*Instance, error) {
	st := takeStore()
	in := &Instance{st: st, s: &st.s, prog: prog, rfVar: st.rfVar, coPos: st.coPos, midx: st.midx}
	if err := in.build(); err != nil {
		in.Release()
		return nil, err
	}
	return in, nil
}

// build encodes the model-free part into the instance's store.
func (in *Instance) build() error {
	prog := in.prog

	// Thread traces with a uniform control-flow skeleton.
	var first []exec.Trace
	for tid := range prog.Threads {
		ts, err := prog.ThreadTraces(tid)
		if err != nil {
			return err
		}
		if len(ts) == 0 {
			return fmt.Errorf("bmc: thread %d has no trace", tid)
		}
		for _, tr := range ts[1:] {
			if err := sameSkeleton(ts[0], tr); err != nil {
				return fmt.Errorf("bmc: thread %d: %v", tid, err)
			}
		}
		in.traces = append(in.traces, ts)
		first = append(first, ts[0])
	}
	var err error
	in.asm, err = prog.Assemble(first)
	if err != nil {
		return err
	}

	// Memory events.
	for _, e := range in.asm.X.Events {
		if e.Kind == events.MemRead || e.Kind == events.MemWrite {
			in.midx[e.ID] = len(in.memID)
			in.memID = append(in.memID, e.ID)
		}
	}
	in.m = len(in.memID)
	if in.m > 24 {
		return fmt.Errorf("bmc: %d memory events exceeds encoding bound", in.m)
	}
	in.c = &in.st.c
	in.c.start(in.s, in.m)

	in.encodeSelectors()
	in.encodeRF()
	in.encodeCO()
	in.buildCoreRels()
	return nil
}

// lower runs a compiled cat model over the circuit (cat.Lower), every
// assertion it makes guarded by act. Gate definitions are not guarded:
// each is an equivalence defining a fresh variable, which constrains
// nothing else.
func (in *Instance) lower(model *cat.Compiled, act sat.Lit) error {
	staticOK, err := cat.Lower(model, in.asm.X, &gates{in: in, act: act})
	if err != nil {
		return err
	}
	if !staticOK {
		in.s.AddClause(act.Neg()) // a static check fails on the skeleton
	}
	return nil
}

// Solve decides reachability: under the model of a single-model instance,
// and under no model on one from EncodeShared.
func (in *Instance) Solve() bool { return in.live().Solve() }

// sameSkeleton checks two traces have identical control flow and access
// shape (values may differ).
func sameSkeleton(a, b exec.Trace) error {
	if len(a.Events) != len(b.Events) {
		return fmt.Errorf("control-flow divergence (%d vs %d events)", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Kind != eb.Kind || ea.Loc != eb.Loc || ea.PC != eb.PC || ea.Fence != eb.Fence {
			return fmt.Errorf("skeleton divergence at event %d (%v vs %v)", i, ea, eb)
		}
	}
	return nil
}

// eventVal returns the value of memory event (by skeleton ID) under trace
// ti of its thread; init writes are constant.
func (in *Instance) eventVal(id, ti int) int {
	t := in.asm.ThreadOf[id]
	if t == events.InitTid {
		return in.asm.X.Events[id].Val
	}
	return in.traces[t][ti].Events[in.asm.LocalIdx[id]].Val
}

func (in *Instance) isInit(id int) bool { return in.asm.ThreadOf[id] == events.InitTid }

func (in *Instance) encodeSelectors() {
	in.sel = make([][]sat.Lit, len(in.traces))
	for t, ts := range in.traces {
		lits := make([]sat.Lit, len(ts))
		for i := range ts {
			lits[i] = sat.Lit(in.s.NewVar())
		}
		in.sel[t] = lits
		in.s.AddClause(lits...)
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				in.s.AddClause(lits[i].Neg(), lits[j].Neg())
			}
		}
	}
}

// selOf returns the selector literals of the thread owning event id
// (nil for init writes: their value is constant).
func (in *Instance) selOf(id int) []sat.Lit {
	t := in.asm.ThreadOf[id]
	if t == events.InitTid {
		return nil
	}
	return in.sel[t]
}

func (in *Instance) encodeRF() {
	evs := in.asm.X.Events
	for _, rID := range in.memID {
		if evs[rID].Kind != events.MemRead {
			continue
		}
		var cands []sat.Lit
		for _, wID := range in.memID {
			if evs[wID].Kind != events.MemWrite || evs[wID].Loc != evs[rID].Loc {
				continue
			}
			v := sat.Lit(in.s.NewVar())
			in.rfVar[[2]int{in.midx[wID], in.midx[rID]}] = v
			cands = append(cands, v)
			in.valueConsistency(v, wID, rID)
		}
		if len(cands) == 0 {
			in.s.AddClause() // no writes at all: unsatisfiable
			continue
		}
		in.s.AddClause(cands...)
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				in.s.AddClause(cands[i].Neg(), cands[j].Neg())
			}
		}
	}
}

// valueConsistency forbids rf edges between trace choices with differing
// values: rf ∧ sel(w-trace) ∧ sel(r-trace) is contradictory if the write's
// value differs from the read's.
func (in *Instance) valueConsistency(rf sat.Lit, wID, rID int) {
	wSel, rSel := in.selOf(wID), in.selOf(rID)
	wT, rT := in.asm.ThreadOf[wID], in.asm.ThreadOf[rID]
	switch {
	case wSel == nil && rSel == nil:
		if in.eventVal(wID, 0) != in.eventVal(rID, 0) {
			in.s.AddClause(rf.Neg())
		}
	case wSel == nil:
		for i := range rSel {
			if in.eventVal(wID, 0) != in.eventVal(rID, i) {
				in.s.AddClause(rf.Neg(), rSel[i].Neg())
			}
		}
	case rSel == nil:
		for i := range wSel {
			if in.eventVal(wID, i) != in.eventVal(rID, 0) {
				in.s.AddClause(rf.Neg(), wSel[i].Neg())
			}
		}
	case wT == rT:
		for i := range wSel {
			if in.eventVal(wID, i) != in.eventVal(rID, i) {
				in.s.AddClause(rf.Neg(), wSel[i].Neg())
			}
		}
	default:
		for i := range wSel {
			for j := range rSel {
				if in.eventVal(wID, i) != in.eventVal(rID, j) {
					in.s.AddClause(rf.Neg(), wSel[i].Neg(), rSel[j].Neg())
				}
			}
		}
	}
}

func (in *Instance) encodeCO() {
	evs := in.asm.X.Events
	// Variables for unordered same-location non-init write pairs.
	for a := 0; a < in.m; a++ {
		for b := a + 1; b < in.m; b++ {
			ea, eb := &evs[in.memID[a]], &evs[in.memID[b]]
			if ea.Kind != events.MemWrite || eb.Kind != events.MemWrite || ea.Loc != eb.Loc {
				continue
			}
			if in.isInit(in.memID[a]) || in.isInit(in.memID[b]) {
				continue // constants
			}
			in.coPos[[2]int{a, b}] = sat.Lit(in.s.NewVar())
		}
	}
	// Transitivity per location.
	for a := 0; a < in.m; a++ {
		for b := 0; b < in.m; b++ {
			for k := 0; k < in.m; k++ {
				if a == b || b == k || a == k {
					continue
				}
				ab, ok1 := in.coLitOK(a, b)
				bk, ok2 := in.coLitOK(b, k)
				ak, ok3 := in.coLitOK(a, k)
				if !ok1 || !ok2 || !ok3 {
					continue
				}
				if in.c.isFalse(ab) || in.c.isFalse(bk) || in.c.isTrue(ak) {
					continue
				}
				if in.c.isTrue(ab) && in.c.isTrue(bk) && in.c.isFalse(ak) {
					in.s.AddClause() // impossible: constants contradict
					continue
				}
				var cl []sat.Lit
				if !in.c.isTrue(ab) {
					cl = append(cl, ab.Neg())
				}
				if !in.c.isTrue(bk) {
					cl = append(cl, bk.Neg())
				}
				if !in.c.isFalse(ak) {
					cl = append(cl, ak)
				}
				in.s.AddClause(cl...)
			}
		}
	}
}

// coLitOK returns the literal for "write a is co-before write b" and
// whether the pair is a same-location write pair at all.
func (in *Instance) coLitOK(a, b int) (sat.Lit, bool) {
	evs := in.asm.X.Events
	ea, eb := &evs[in.memID[a]], &evs[in.memID[b]]
	if ea.Kind != events.MemWrite || eb.Kind != events.MemWrite || ea.Loc != eb.Loc || a == b {
		return in.c.falseLit, false
	}
	switch {
	case in.isInit(in.memID[a]):
		return in.c.trueLit, true
	case in.isInit(in.memID[b]):
		return in.c.falseLit, true
	case a < b:
		return in.coPos[[2]int{a, b}], true
	default:
		return in.coPos[[2]int{b, a}].Neg(), true
	}
}

func (in *Instance) buildCoreRels() {
	c := in.c
	in.rfRel = c.emptyRel()
	for k, v := range in.rfVar {
		in.rfRel[k[0]*in.m+k[1]] = v
	}
	in.coRel = c.emptyRel()
	for a := 0; a < in.m; a++ {
		for b := 0; b < in.m; b++ {
			if l, ok := in.coLitOK(a, b); ok {
				in.coRel[a*in.m+b] = l
			}
		}
	}
	// fr(r, w2) = ∃w1. rf(w1, r) ∧ co(w1, w2).
	in.frRel = c.emptyRel()
	evs := in.asm.X.Events
	for r := 0; r < in.m; r++ {
		if evs[in.memID[r]].Kind != events.MemRead {
			continue
		}
		for w2 := 0; w2 < in.m; w2++ {
			if evs[in.memID[w2]].Kind != events.MemWrite || evs[in.memID[w2]].Loc != evs[in.memID[r]].Loc {
				continue
			}
			var terms []sat.Lit
			for w1 := 0; w1 < in.m; w1++ {
				rf, okRF := in.rfVar[[2]int{w1, r}]
				if !okRF {
					continue
				}
				co, okCO := in.coLitOK(w1, w2)
				if !okCO {
					continue
				}
				terms = append(terms, c.and2(rf, co))
			}
			in.frRel[r*in.m+w2] = c.or(terms...)
		}
	}
}
