package cat

// This file lowers a parsed cat model into a specialised evaluator — the
// compile step that kills the per-candidate allocation storm of the AST
// interpreter.
//
// The key observation: a cat binding's value depends on the candidate
// execution only through the builtins it (transitively) references. The
// builtins split in two classes. Static builtins — po, po-loc, id, the
// dependency relations, every fence — are determined by the event skeleton
// alone and are invariant across all rf/co choices the enumerator makes
// over it. Dynamic builtins — rf, co and everything downstream (fr, com,
// sw, the e/i splits) — change with every candidate. Compilation
// partitions the model's bindings by this dataflow: static bindings (and
// static checks, and static subexpressions of dynamic right-hand sides,
// which are hoisted) are evaluated once per skeleton by the reference
// interpreter into a slot table; the dynamic slice is lowered to a flat
// instruction sequence over a small register file of rel.Rel buffers,
// executed per candidate with the destructive kernels of internal/rel —
// zero steady-state allocation.
//
// The AST interpreter (cat.go) remains the reference implementation; the
// equivalence suite asserts byte-identical outcomes between the two.

import (
	"fmt"

	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/rel"
)

// --- Dynamic builtins ----------------------------------------------------

// Tags for the builtins derived from the enumerated rf/co choice. Any
// binding whose definition (transitively) references one of these is
// dynamic and must be re-evaluated per candidate; everything else is
// static per skeleton.
const (
	dRF uint8 = iota
	dRFE
	dRFI
	dSW
	dCO
	dCOE
	dCOI
	dFR
	dFRE
	dFRI
	dCom
)

var dynNames = map[string]uint8{
	"rf": dRF, "rfe": dRFE, "rfi": dRFI, "sw": dSW,
	"co": dCO, "coe": dCOE, "coi": dCOI,
	"fr": dFR, "fre": dFRE, "fri": dFRI,
	"com": dCom,
}

// dynRel resolves a dynamic-builtin tag against a derived execution.
func dynRel(x *events.Execution, tag uint8) rel.Rel {
	switch tag {
	case dRF:
		return x.MemRF()
	case dRFE:
		return x.RFE
	case dRFI:
		return x.RFI
	case dSW:
		return x.SW
	case dCO:
		return x.CO
	case dCOE:
		return x.COE
	case dCOI:
		return x.COI
	case dFR:
		return x.FR
	case dFRE:
		return x.FRE
	case dFRI:
		return x.FRI
	case dCom:
		return x.Com
	}
	panic(fmt.Sprintf("cat: bad dynamic builtin tag %d", tag))
}

// --- Compiled form -------------------------------------------------------

// operand addresses one input of a dynamic instruction: a register of the
// evaluator's scratch file, a static slot (computed once per skeleton), or
// a dynamic builtin fetched straight off the candidate execution. Static
// and dynamic sources are read-only; only registers are ever written.
type opndKind uint8

const (
	oReg opndKind = iota
	oStatic
	oDyn
)

type operand struct {
	kind opndKind
	idx  int
}

// cop is a dynamic-slice opcode. All relation-valued operations go through
// the destructive kernels of internal/rel, mutating the destination
// register in place.
type cop uint8

const (
	cZero     cop = iota // regs[dst] = ∅
	cCopy                // regs[dst] = a
	cUnion               // regs[dst] ∪= a
	cInter               // regs[dst] ∩= a
	cDiff                // regs[dst] \= a
	cSeq                 // regs[dst] = a ; b
	cPlus                // regs[dst] = regs[dst]⁺
	cUnionID             // regs[dst] ∪= id (full diagonal; '+'∪id = '*', r∪id = '?')
	cCompl               // regs[dst] = ~regs[dst]
	cRestrict            // regs[dst] = DIRS(regs[dst]); aux encodes the two directions
	cSnapshot            // shadows of fix group aux ← their registers
	cLoop                // if group aux changed since its snapshot, jump to aux2
	cCheck               // dynChecks[aux] result ← check kind applied to a
)

type cinstr struct {
	op   cop
	dst  int
	a, b operand
	aux  int
	aux2 int
}

// fixGroup is one let-rec binding group: the registers holding the current
// values and the shadow registers the convergence test compares against.
type fixGroup struct {
	regs    []int
	shadows []int
}

// staticStep is one step of the per-skeleton static program, run by the
// reference interpreter in statement order. Exactly one of the three forms
// is active: a let statement evaluated into the interpreter environment, a
// hoisted expression evaluated into a static slot, or a static check whose
// verdict is recorded once and reused for every candidate.
type staticStep struct {
	let   *sLet
	slot  int // destination slot, with e the expression; -1 when unused
	check int // index into Compiled.sChecks, with e the expression; -1 when unused
	e     expr
}

type staticCheck struct {
	kind checkKind
	name string
}

type dynCheck struct {
	kind checkKind
	name string
}

// checkRef points at a check's verdict in statement order, so results
// assemble in exactly the interpreter's order.
type checkRef struct {
	static bool
	idx    int
}

// Compiled is the specialised form of a Model: bindings partitioned into a
// static program (run once per skeleton) and a flat dynamic instruction
// sequence (run per candidate over pooled registers). A Compiled is
// immutable and safe to share between goroutines; per-search mutable state
// lives in the Evaluator it mints. It implements the simulator's Checker
// (via one-shot evaluators) and core.EvaluatorProvider.
type Compiled struct {
	m         *Model
	static    []staticStep
	nSlots    int
	sChecks   []staticCheck
	prog      []cinstr
	nRegs     int
	fixGroups []fixGroup
	dChecks   []dynCheck
	checks    []checkRef
}

// Name returns the model's declared name.
func (c *Compiled) Name() string { return c.m.name }

// Fingerprint returns the source fingerprint of the underlying model, so
// caches identify the compiled and interpreted forms as the same model.
func (c *Compiled) Fingerprint() string { return c.m.fp }

// PruneLevel delegates to the model's syntactic pruning analysis.
func (c *Compiled) PruneLevel() exec.Prune { return c.m.PruneLevel() }

// Check validates one execution with a throwaway evaluator. It is safe for
// concurrent use; hot loops should hold an Evaluator (NewEvaluator) instead
// so buffers and the static program are reused across candidates.
func (c *Compiled) Check(x *events.Execution) core.Result {
	return c.newEvaluator().Check(x)
}

// NewEvaluator implements core.EvaluatorProvider: the returned checker owns
// a register file of pooled relation buffers and a per-skeleton cache of
// the static program's results. One evaluator serves one goroutine.
func (c *Compiled) NewEvaluator() core.Checker { return c.newEvaluator() }

func (c *Compiled) newEvaluator() *Evaluator {
	return &Evaluator{
		c:     c,
		sOK:   make([]bool, len(c.sChecks)),
		dOK:   make([]bool, len(c.dChecks)),
		iters: make([]int, len(c.fixGroups)),
	}
}

// --- Lowering ------------------------------------------------------------

// binding records what a name currently means to the lowerer: a dynamic
// register, or a value living in the static interpreter environment.
type binding struct {
	dynamic bool
	reg     int
}

type lowerer struct {
	c         *Compiled
	names     map[string]binding
	slotByKey map[string]int // dedup key "epoch:expr" -> static slot
	epoch     int            // bumped per static let, invalidating hoist dedup
	nextReg   int
	free      []int
}

// Compile lowers the model into its specialised evaluator form. The
// program argument is a presizing hint and may be nil; compilation depends
// only on the model source. Lowering a validated model cannot fail today —
// the error return guards internal invariants and future language forms.
func (m *Model) Compile(p *exec.Program) (*Compiled, error) {
	_ = p
	c := &Compiled{m: m}
	lw := &lowerer{c: c, names: map[string]binding{}, slotByKey: map[string]int{}}
	for _, st := range m.stmts {
		switch st := st.(type) {
		case sLet:
			if lw.isStaticLet(st) {
				stc := st
				c.static = append(c.static, staticStep{let: &stc, slot: -1, check: -1})
				for _, b := range st.binds {
					lw.names[b.name] = binding{dynamic: false}
				}
				lw.epoch++
			} else if err := lw.lowerDynamicLet(st); err != nil {
				return nil, err
			}
		case sCheck:
			if lw.isStatic(st.e) {
				idx := len(c.sChecks)
				c.sChecks = append(c.sChecks, staticCheck{kind: st.kind, name: st.name})
				c.static = append(c.static, staticStep{slot: -1, check: idx, e: st.e})
				c.checks = append(c.checks, checkRef{static: true, idx: idx})
			} else {
				a, owned, err := lw.compileExpr(st.e)
				if err != nil {
					return nil, err
				}
				idx := len(c.dChecks)
				c.dChecks = append(c.dChecks, dynCheck{kind: st.kind, name: st.name})
				lw.emit(cinstr{op: cCheck, a: a, aux: idx})
				if owned {
					lw.release(a.idx)
				}
				c.checks = append(c.checks, checkRef{static: false, idx: idx})
			}
		}
	}
	c.nRegs = lw.nextReg
	return c, nil
}

// Compiled returns the model's lazily-lowered compiled form, shared across
// callers (and hence across the memo cache's users — lowering happens once
// per model identity).
func (m *Model) Compiled() (*Compiled, error) {
	m.compileOnce.Do(func() {
		m.compiled, m.compileErr = m.Compile(nil)
	})
	return m.compiled, m.compileErr
}

// NewEvaluator implements core.EvaluatorProvider for the model itself:
// sim.Simulate upgrades any *Model checker to its compiled evaluator
// transparently. A nil return (lowering failed) makes the caller fall back
// to the interpreting Check.
func (m *Model) NewEvaluator() core.Checker {
	c, err := m.Compiled()
	if err != nil {
		return nil
	}
	return c.newEvaluator()
}

// Interpreted returns the model as a pure AST-interpreting checker with the
// evaluator upgrade hidden: sim.Simulate will interpret every candidate.
// This is the reference implementation the compiled evaluator is tested
// against; production callers should pass the model itself.
func (m *Model) Interpreted() core.Checker { return interpOnly{m} }

type interpOnly struct{ m *Model }

func (i interpOnly) Name() string { return i.m.name }

func (i interpOnly) Check(x *events.Execution) core.Result { return i.m.Check(x) }

// PruneLevel keeps the interpreted wrapper prune-equivalent to the model,
// so outcome equivalence holds with pruning enabled too.
func (i interpOnly) PruneLevel() exec.Prune { return i.m.PruneLevel() }

func (lw *lowerer) emit(in cinstr) { lw.c.prog = append(lw.c.prog, in) }

func (lw *lowerer) alloc() int {
	if k := len(lw.free); k > 0 {
		r := lw.free[k-1]
		lw.free = lw.free[:k-1]
		return r
	}
	r := lw.nextReg
	lw.nextReg++
	return r
}

func (lw *lowerer) release(reg int) { lw.free = append(lw.free, reg) }

// isStatic reports whether the expression's value is invariant across the
// candidates of a skeleton: it references no dynamic builtin and no
// dynamically-bound name, under the names currently in scope.
func (lw *lowerer) isStatic(e expr) bool {
	switch e := e.(type) {
	case eZero:
		return true
	case eIdent:
		if b, ok := lw.names[e.name]; ok {
			return !b.dynamic
		}
		_, dyn := dynNames[e.name]
		return !dyn
	case eBin:
		return lw.isStatic(e.l) && lw.isStatic(e.r)
	case ePost:
		return lw.isStatic(e.x)
	case eCompl:
		return lw.isStatic(e.x)
	case eRestrict:
		return lw.isStatic(e.x)
	}
	return false
}

// isStaticLet classifies a whole let statement. A recursive group is
// judged as a unit — its own names count as static while examining the
// right-hand sides, so a group is dynamic iff some member reaches a
// dynamic builtin or binding outside the group.
func (lw *lowerer) isStaticLet(st sLet) bool {
	if st.rec {
		type saved struct {
			b  binding
			ok bool
		}
		prev := make(map[string]saved, len(st.binds))
		for _, b := range st.binds {
			old, ok := lw.names[b.name]
			prev[b.name] = saved{old, ok}
			lw.names[b.name] = binding{dynamic: false}
		}
		defer func() {
			for name, s := range prev {
				if s.ok {
					lw.names[name] = s.b
				} else {
					delete(lw.names, name)
				}
			}
		}()
	}
	for _, b := range st.binds {
		if !lw.isStatic(b.e) {
			return false
		}
	}
	return true
}

// slotOf hoists a static expression into a slot of the per-skeleton slot
// table, deduplicated per static-environment epoch so repeated occurrences
// of e.g. `fence` in dynamic right-hand sides share one evaluation.
func (lw *lowerer) slotOf(e expr) operand {
	key := fmt.Sprintf("%d:%s", lw.epoch, e.String())
	if idx, ok := lw.slotByKey[key]; ok {
		return operand{kind: oStatic, idx: idx}
	}
	idx := lw.c.nSlots
	lw.c.nSlots++
	lw.slotByKey[key] = idx
	lw.c.static = append(lw.c.static, staticStep{slot: idx, check: -1, e: e})
	return operand{kind: oStatic, idx: idx}
}

// lowerDynamicLet lowers one dynamic let statement. Each binding gets a
// pinned register (never recycled); recursive groups compile to a
// snapshot/body/loop sequence realising the same Gauss–Seidel Kleene
// iteration as the interpreter — per round, each binding is recomputed in
// order seeing the updated values of earlier ones, until a full round
// changes nothing.
func (lw *lowerer) lowerDynamicLet(st sLet) error {
	if !st.rec {
		for _, b := range st.binds {
			a, owned, err := lw.compileExpr(b.e)
			if err != nil {
				return err
			}
			reg := lw.alloc()
			lw.emit(cinstr{op: cCopy, dst: reg, a: a})
			if owned {
				lw.release(a.idx)
			}
			lw.names[b.name] = binding{dynamic: true, reg: reg}
		}
		return nil
	}
	g := fixGroup{}
	for _, b := range st.binds {
		reg := lw.alloc()
		g.regs = append(g.regs, reg)
		g.shadows = append(g.shadows, lw.alloc())
		lw.emit(cinstr{op: cZero, dst: reg})
		lw.names[b.name] = binding{dynamic: true, reg: reg}
	}
	gi := len(lw.c.fixGroups)
	lw.c.fixGroups = append(lw.c.fixGroups, g)
	loopStart := len(lw.c.prog)
	lw.emit(cinstr{op: cSnapshot, aux: gi})
	for i, b := range st.binds {
		a, owned, err := lw.compileExpr(b.e)
		if err != nil {
			return err
		}
		lw.emit(cinstr{op: cCopy, dst: g.regs[i], a: a})
		if owned {
			lw.release(a.idx)
		}
	}
	lw.emit(cinstr{op: cLoop, aux: gi, aux2: loopStart})
	return nil
}

// compileExpr lowers one dynamic expression, returning the operand holding
// its value and whether that operand is a scratch register the caller owns
// (and must release or keep). Static subexpressions are hoisted whole into
// slots; owned registers are mutated in place where the operators allow
// (commutative operators fold into either owned side), so the generated
// code moves no more words than it must.
func (lw *lowerer) compileExpr(e expr) (operand, bool, error) {
	if lw.isStatic(e) {
		return lw.slotOf(e), false, nil
	}
	switch e := e.(type) {
	case eIdent:
		if b, ok := lw.names[e.name]; ok {
			if !b.dynamic {
				return operand{}, false, fmt.Errorf("cat: internal: static name %q reached dynamic lowering", e.name)
			}
			return operand{kind: oReg, idx: b.reg}, false, nil
		}
		tag, ok := dynNames[e.name]
		if !ok {
			return operand{}, false, fmt.Errorf("cat: internal: unknown dynamic builtin %q", e.name)
		}
		return operand{kind: oDyn, idx: int(tag)}, false, nil
	case eBin:
		switch e.op {
		case '|', '&':
			l, lo, err := lw.compileExpr(e.l)
			if err != nil {
				return operand{}, false, err
			}
			r, ro, err := lw.compileExpr(e.r)
			if err != nil {
				return operand{}, false, err
			}
			op := cUnion
			if e.op == '&' {
				op = cInter
			}
			if lo {
				lw.emit(cinstr{op: op, dst: l.idx, a: r})
				if ro {
					lw.release(r.idx)
				}
				return l, true, nil
			}
			if ro {
				lw.emit(cinstr{op: op, dst: r.idx, a: l})
				return r, true, nil
			}
			d := lw.alloc()
			lw.emit(cinstr{op: cCopy, dst: d, a: l})
			lw.emit(cinstr{op: op, dst: d, a: r})
			return operand{kind: oReg, idx: d}, true, nil
		case '\\':
			l, lo, err := lw.compileExpr(e.l)
			if err != nil {
				return operand{}, false, err
			}
			r, ro, err := lw.compileExpr(e.r)
			if err != nil {
				return operand{}, false, err
			}
			d := l
			if !lo {
				d = operand{kind: oReg, idx: lw.alloc()}
				lw.emit(cinstr{op: cCopy, dst: d.idx, a: l})
			}
			lw.emit(cinstr{op: cDiff, dst: d.idx, a: r})
			if ro {
				lw.release(r.idx)
			}
			return d, true, nil
		case ';':
			l, lo, err := lw.compileExpr(e.l)
			if err != nil {
				return operand{}, false, err
			}
			r, ro, err := lw.compileExpr(e.r)
			if err != nil {
				return operand{}, false, err
			}
			// SeqInto needs a destination distinct from both operands;
			// l and r are still held, so alloc cannot return either.
			d := lw.alloc()
			lw.emit(cinstr{op: cSeq, dst: d, a: l, b: r})
			if lo {
				lw.release(l.idx)
			}
			if ro {
				lw.release(r.idx)
			}
			return operand{kind: oReg, idx: d}, true, nil
		}
		return operand{}, false, fmt.Errorf("cat: internal: unknown operator %q", e.op)
	case ePost:
		d, err := lw.owned(e.x)
		if err != nil {
			return operand{}, false, err
		}
		switch e.op {
		case '+':
			lw.emit(cinstr{op: cPlus, dst: d.idx})
		case '*':
			lw.emit(cinstr{op: cPlus, dst: d.idx})
			lw.emit(cinstr{op: cUnionID, dst: d.idx})
		case '?':
			lw.emit(cinstr{op: cUnionID, dst: d.idx})
		default:
			return operand{}, false, fmt.Errorf("cat: internal: unknown postfix %q", e.op)
		}
		return d, true, nil
	case eCompl:
		d, err := lw.owned(e.x)
		if err != nil {
			return operand{}, false, err
		}
		lw.emit(cinstr{op: cCompl, dst: d.idx})
		return d, true, nil
	case eRestrict:
		d, err := lw.owned(e.x)
		if err != nil {
			return operand{}, false, err
		}
		lw.emit(cinstr{op: cRestrict, dst: d.idx, aux: int(e.dirs[0])<<8 | int(e.dirs[1])})
		return d, true, nil
	}
	return operand{}, false, fmt.Errorf("cat: internal: unhandled expression %T", e)
}

// owned compiles e and guarantees the result sits in a caller-owned
// register, inserting a copy when the value came from a shared source.
func (lw *lowerer) owned(e expr) (operand, error) {
	a, ao, err := lw.compileExpr(e)
	if err != nil {
		return operand{}, err
	}
	if ao {
		return a, nil
	}
	d := operand{kind: oReg, idx: lw.alloc()}
	lw.emit(cinstr{op: cCopy, dst: d.idx, a: a})
	return d, nil
}

// --- Evaluation ----------------------------------------------------------

// Evaluator executes a Compiled model over candidate executions. It caches
// the static program's results per skeleton (the Base pointer candidates
// of one expansion share) and reuses one register file of relation buffers
// across every candidate, so steady-state checking allocates nothing. Not
// safe for concurrent use — sim.Simulate holds one per search worker and
// checks only that worker's shards with it, on the worker's goroutine;
// sibling evaluators read the same skeletons concurrently but write only
// their own buffers.
type Evaluator struct {
	c      *Compiled
	n      int
	base   *events.Execution
	static []rel.Rel
	sOK    []bool
	regs   []rel.Rel
	dOK    []bool
	iters  []int
	dfs    rel.DFSScratch
}

// Name returns the model's declared name.
func (ev *Evaluator) Name() string { return ev.c.m.name }

// Check validates one candidate execution. The execution must be derived
// (Derive, or AdoptStatic+DeriveDynamic from a derived skeleton). Model
// evaluation failure — a divergent let rec — is reported as Result.Err,
// never as a panic.
func (ev *Evaluator) Check(x *events.Execution) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{Err: fmt.Errorf("cat: model %q evaluation failed: %v", ev.c.m.name, r)}
		}
	}()
	base := x.Base
	if base == nil {
		base = x
	}
	if ev.base != base || ev.n != x.N() {
		ev.bind(base, x.N())
	}
	ev.run(x)

	var failed []string
	for _, cr := range ev.c.checks {
		if cr.static {
			if !ev.sOK[cr.idx] {
				failed = append(failed, ev.c.sChecks[cr.idx].name)
			}
		} else if !ev.dOK[cr.idx] {
			failed = append(failed, ev.c.dChecks[cr.idx].name)
		}
	}
	return core.Result{Valid: len(failed) == 0, FailedChecks: failed}
}

// bind runs the static program against a new skeleton: let bindings and
// hoisted expressions evaluate through the reference interpreter into the
// slot table, static checks record their verdicts, and the register file
// is (re)sized. Candidates sharing the skeleton skip all of this.
func (ev *Evaluator) bind(base *events.Execution, n int) {
	c := ev.c
	ev.static = make([]rel.Rel, c.nSlots)
	env := &env{x: base, defs: map[string]rel.Rel{}}
	for _, st := range c.static {
		switch {
		case st.let != nil:
			env.evalLet(*st.let)
		case st.slot >= 0:
			ev.static[st.slot] = env.eval(st.e)
		case st.check >= 0:
			ev.sOK[st.check] = applyCheck(c.sChecks[st.check].kind, env.eval(st.e), &ev.dfs)
		}
	}
	if len(ev.regs) != c.nRegs || ev.n != n {
		ev.regs = make([]rel.Rel, c.nRegs)
		for i := range ev.regs {
			ev.regs[i] = rel.New(n)
		}
	}
	ev.base, ev.n = base, n
}

func applyCheck(kind checkKind, r rel.Rel, dfs *rel.DFSScratch) bool {
	switch kind {
	case checkAcyclic:
		return r.AcyclicScratch(dfs)
	case checkIrreflexive:
		return r.Irreflexive()
	case checkReflexive:
		return r.Reflexive()
	case checkEmpty:
		return r.IsEmpty()
	}
	panic(fmt.Sprintf("cat: bad check kind %d", kind))
}

// fetch resolves an operand against the register file, the static slot
// table, or the candidate execution.
func (ev *Evaluator) fetch(x *events.Execution, o operand) rel.Rel {
	switch o.kind {
	case oReg:
		return ev.regs[o.idx]
	case oStatic:
		return ev.static[o.idx]
	default:
		return dynRel(x, uint8(o.idx))
	}
}

func (ev *Evaluator) dirSet(x *events.Execution, d byte) rel.Set {
	switch d {
	case 'R':
		return x.R
	case 'W':
		return x.W
	case 'M':
		return x.M
	}
	panic(fmt.Sprintf("cat: bad direction %c", d))
}

// run executes the dynamic instruction sequence for one candidate.
func (ev *Evaluator) run(x *events.Execution) {
	c := ev.c
	for i := range ev.iters {
		ev.iters[i] = 0
	}
	for pc := 0; pc < len(c.prog); pc++ {
		in := &c.prog[pc]
		switch in.op {
		case cZero:
			ev.regs[in.dst].Clear()
		case cCopy:
			ev.regs[in.dst].CopyFrom(ev.fetch(x, in.a))
		case cUnion:
			ev.regs[in.dst].UnionInto(ev.fetch(x, in.a))
		case cInter:
			ev.regs[in.dst].InterInto(ev.fetch(x, in.a))
		case cDiff:
			ev.regs[in.dst].DiffInto(ev.fetch(x, in.a))
		case cSeq:
			ev.regs[in.dst].SeqInto(ev.fetch(x, in.a), ev.fetch(x, in.b))
		case cPlus:
			ev.regs[in.dst].PlusInPlace()
		case cUnionID:
			ev.regs[in.dst].UnionIdentity()
		case cCompl:
			ev.regs[in.dst].ComplementInPlace()
		case cRestrict:
			ev.regs[in.dst].RestrictInPlace(
				ev.dirSet(x, byte(in.aux>>8)), ev.dirSet(x, byte(in.aux)))
		case cSnapshot:
			g := &c.fixGroups[in.aux]
			for k, r := range g.regs {
				ev.regs[g.shadows[k]].CopyFrom(ev.regs[r])
			}
		case cLoop:
			g := &c.fixGroups[in.aux]
			changed := false
			for k, r := range g.regs {
				if !ev.regs[r].Equal(ev.regs[g.shadows[k]]) {
					changed = true
					break
				}
			}
			if changed {
				ev.iters[in.aux]++
				if ev.iters[in.aux] > maxFixpointIters {
					panic("cat: let rec did not converge")
				}
				pc = in.aux2 - 1
			}
		case cCheck:
			ev.dOK[in.aux] = applyCheck(
				c.dChecks[in.aux].kind, ev.fetch(x, in.a), &ev.dfs)
		}
	}
}

// Guard: the compiled form and the model satisfy the provider and checker
// contracts.
var (
	_ core.Checker           = (*Compiled)(nil)
	_ core.EvaluatorProvider = (*Compiled)(nil)
	_ core.EvaluatorProvider = (*Model)(nil)
)
