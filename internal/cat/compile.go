package cat

// This file lowers a parsed cat model into a specialised evaluator — the
// compile step that kills the per-candidate allocation storm of the AST
// interpreter.
//
// A cat binding's value depends on the candidate execution only through
// the builtins it (transitively) references, and evaluation runs in three
// tiers by how often those change:
//
//   - Model-static: po, po-loc, id, the dependency relations and every
//     fence are fixed by the event skeleton. Static bindings and checks,
//     and the static subexpressions hoisted out of dynamic right-hand
//     sides, are evaluated once per skeleton by the reference interpreter
//     into a slot table.
//   - Skeleton-static: rf, co and everything downstream (fr, com, sw, the
//     e/i splits) vary per candidate, but the skeleton's events bound
//     them from below and above. After a few candidates of a skeleton, one
//     abstract run of the dynamic program over those bounds folds what
//     they decide into constants and checks, leaving a residual program.
//   - Per candidate: the dynamic slice — generic or residual — runs as a
//     flat instruction sequence over a small register file of rel.Rel
//     buffers, with the destructive kernels of internal/rel and zero
//     steady-state allocation.
//
// The AST interpreter (cat.go) remains the reference implementation; the
// equivalence suite asserts byte-identical outcomes between the two.

import (
	"fmt"
	"slices"

	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/rel"
)

// --- Dynamic builtins ----------------------------------------------------

// dynNames maps the builtins derived from the enumerated rf/co choice to
// their events.Dyn bit. Any binding whose definition (transitively)
// references one of these is dynamic and must be re-evaluated per
// candidate; everything else is static per skeleton. An oDyn operand's idx
// is the builtin's bit, so a program's demand is the OR of its operands.
var dynNames = map[string]events.Dyn{
	"rf": events.DynRF, "rfe": events.DynRFE, "rfi": events.DynRFI, "sw": events.DynSW,
	"co": events.DynCO, "coe": events.DynCOE, "coi": events.DynCOI,
	"fr": events.DynFR, "fre": events.DynFRE, "fri": events.DynFRI,
	"com": events.DynCom,
}

// dynRel resolves a dynamic builtin against an execution that has derived
// it.
func dynRel(x *events.Execution, d events.Dyn) rel.Rel {
	switch d {
	case events.DynRF:
		return x.MemRF()
	case events.DynRFE:
		return x.RFE
	case events.DynRFI:
		return x.RFI
	case events.DynSW:
		return x.SW
	case events.DynCO:
		return x.CO
	case events.DynCOE:
		return x.COE
	case events.DynCOI:
		return x.COI
	case events.DynFR:
		return x.FR
	case events.DynFRE:
		return x.FRE
	case events.DynFRI:
		return x.FRI
	case events.DynCom:
		return x.Com
	}
	panic(fmt.Sprintf("cat: bad dynamic builtin %#x", d))
}

// demandOf is the set of dynamic builtins a program fetches.
func demandOf(prog []cinstr) events.Dyn {
	var d events.Dyn
	for _, in := range prog {
		for _, o := range [2]operand{in.a, in.b} {
			if o.kind == oDyn {
				d |= events.Dyn(o.idx)
			}
		}
	}
	return d
}

// --- Compiled form -------------------------------------------------------

// operand addresses one input of a dynamic instruction: a register of the
// evaluator's scratch file, a static slot (computed once per skeleton), a
// dynamic builtin fetched straight off the candidate execution, or a
// residual program's skeleton constant. Only registers are ever written.
type opndKind uint8

const (
	oReg opndKind = iota
	oStatic
	oDyn
	oConst
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
// Its code is prog[start:end+1]: a cZero per member, then cSnapshot, body
// and cLoop.
type fixGroup struct {
	regs       []int
	shadows    []int
	start, end int
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
	demand    events.Dyn // the dynamic builtins prog fetches
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
	c.demand = demandOf(c.prog)
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
	g := fixGroup{start: len(lw.c.prog)}
	for _, b := range st.binds {
		reg := lw.alloc()
		g.regs = append(g.regs, reg)
		g.shadows = append(g.shadows, lw.alloc())
		lw.emit(cinstr{op: cZero, dst: reg})
		lw.names[b.name] = binding{dynamic: true, reg: reg}
	}
	gi := len(lw.c.fixGroups)
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
	g.end = len(lw.c.prog)
	lw.emit(cinstr{op: cLoop, aux: gi, aux2: loopStart})
	lw.c.fixGroups = append(lw.c.fixGroups, g)
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
		d, ok := dynNames[e.name]
		if !ok {
			return operand{}, false, fmt.Errorf("cat: internal: unknown dynamic builtin %q", e.name)
		}
		return operand{kind: oDyn, idx: int(d)}, false, nil
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
// of one expansion share), specialises the dynamic program to a skeleton
// after a few of its candidates, and reuses its relation buffers, so
// steady-state checking allocates nothing. Not safe for concurrent use —
// sim.Simulate holds one per search worker and checks only that worker's
// shards with it, on the worker's goroutine; sibling evaluators read the
// same skeletons concurrently but write only their own buffers.
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
	seen   int       // candidates of the bound skeleton checked so far
	sp     *residual // allocated by the first specialisation
}

// Name returns the model's declared name.
func (ev *Evaluator) Name() string { return ev.c.m.name }

// DerivesOwnDemand declares to sim that Check derives the dynamic
// relations it reads (sim.SelfDeriving).
func (ev *Evaluator) DerivesOwnDemand() {}

// Check validates one candidate execution. The execution needs its static
// half (Derive, or AdoptStatic from a derived skeleton); of the dynamic
// relations, Check derives the ones its program reads and no others, so a
// deferred candidate (exec.Request.Deferred) is checked as is. Model
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
	if ev.seen == specGate {
		if ev.sp == nil {
			ev.sp = &residual{}
		}
		ev.sp.on = ev.specialise()
	}
	ev.seen++
	covered := false
	if sp := ev.sp; sp != nil && sp.on {
		x.DeriveDemand(sp.demand, nil)
		covered = sp.covers(x)
	}
	if covered {
		ev.run(x, ev.sp.prog)
		for i, d := range ev.sp.decided {
			if d {
				ev.dOK[i] = ev.sp.fixedOK[i]
			}
		}
	} else {
		x.DeriveDemand(ev.c.demand, nil)
		ev.run(x, ev.c.prog)
	}

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
		ev.regs = rel.NewN(n, c.nRegs)
	}
	ev.base, ev.n = base, n
	if ev.seen = 0; ev.sp != nil {
		ev.sp.on = false
	}
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
// table, the skeleton constants, or the candidate execution.
func (ev *Evaluator) fetch(x *events.Execution, o operand) rel.Rel {
	switch o.kind {
	case oReg:
		return ev.regs[o.idx]
	case oStatic:
		return ev.static[o.idx]
	case oConst:
		return ev.sp.consts[o.idx]
	default:
		return dynRel(x, events.Dyn(o.idx))
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

// run executes the generic or a residual program for one candidate.
func (ev *Evaluator) run(x *events.Execution, prog []cinstr) {
	c := ev.c
	for i := range ev.iters {
		ev.iters[i] = 0
	}
	for pc := 0; pc < len(prog); pc++ {
		in := &prog[pc]
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

// --- Per-skeleton specialisation -----------------------------------------

// specialiseAfter is how many candidates of a skeleton an evaluator checks
// with the generic program before it specialises the skeleton. On Power,
// specialising costs about seven generic checks with a fresh evaluator
// (three with warm buffers), and a residual check saves at most about four
// fifths of one. Like a skier renting for as long as buying would cost,
// the evaluator specialises only after that many candidates, so a small
// skeleton never loses more than the specialisation costs. The ratio is
// Power's; the smaller sc, tso, c11 and cpp-ra programs shrink less and
// break even later (DESIGN.md §12).
const specialiseAfter = 8

// specGate is the threshold in force; tests lower it.
var specGate = specialiseAfter

// residual is an evaluator's specialisation of the dynamic program to its
// bound skeleton, the tier between the model-static program and the
// per-candidate run. The skeleton's events bound every candidate's rf and
// co from below and above; one abstract run of the program over both
// bounds finds the values and checks they decide, and the residual program
// computes only the rest. Its buffers are kept while n is unchanged.
type residual struct {
	on bool // the residual program is built for the bound skeleton
	n  int

	rfLo, rfHi, coLo, coHi rel.Rel
	lox, hix               events.Execution // the bounds, derived
	arena                  rel.Arena
	lo, hi                 []rel.Rel // the abstract register files
	consts                 []rel.Rel // skeleton constants; the first nConst are in use
	nConst                 int
	prog                   []cinstr
	demand                 events.Dyn // what prog fetches, plus rf and co for covers
	decided, fixedOK       []bool     // per dynamic check: fixed by the bounds, and how

	// Build scratch: per instruction the constant its result folds to (or
	// -1), per register its constant as a folded group's member, per group
	// whether its bounds meet, and liveness.
	constAt, member        []int
	fold                   []bool
	live, written, exposed []bool
}

// covers is the per-candidate guard: a residual program is exact only for
// executions inside the bounds it was built from. Enumerated candidates
// always are; a hand-built one outside them runs the generic program.
func (sp *residual) covers(x *events.Execution) bool {
	rf := x.MemRF()
	return sp.rfLo.SubsetOf(rf) && rf.SubsetOf(sp.rfHi) &&
		sp.coLo.SubsetOf(x.CO) && x.CO.SubsetOf(sp.coHi)
}

// bounds derives rf and co's bounds from the skeleton's events, matching
// exec's enumeration: a read takes its value from a same-location write,
// of the same value when sameValue is set (rf's lower bound holds the
// reads with one such write), and a location's coherence order starts at
// its initial write and orders the others every way. Everything derived
// from rf and co is monotone in them, so deriving the demand d on both
// bounds bounds fr, com, sw and the e/i splits.
func (sp *residual) bounds(base *events.Execution, sameValue bool, d events.Dyn) {
	evs := base.Events
	for _, r := range []rel.Rel{sp.rfLo, sp.rfHi, sp.coLo, sp.coHi} {
		r.Clear()
	}
	for i := range evs {
		e := &evs[i]
		if !e.IsMem() {
			continue
		}
		feeds, last := 0, -1
		for j := range evs {
			w := &evs[j]
			if w.Kind != events.MemWrite || w.Loc != e.Loc || w.ID == e.ID {
				continue
			}
			if e.Kind == events.MemRead && (!sameValue || w.Val == e.Val) {
				sp.rfHi.Add(w.ID, e.ID)
				feeds, last = feeds+1, w.ID
			}
			if e.Kind == events.MemWrite && !e.IsInit() {
				sp.coHi.Add(w.ID, e.ID)
				if w.IsInit() {
					sp.coLo.Add(w.ID, e.ID)
				}
			}
		}
		if feeds == 1 {
			sp.rfLo.Add(last, e.ID)
		}
	}
	sp.lox.Events, sp.lox.RF, sp.lox.CO = evs, sp.rfLo, sp.coLo
	sp.hix.Events, sp.hix.RF, sp.hix.CO = evs, sp.rfHi, sp.coHi
	for _, x := range []*events.Execution{&sp.lox, &sp.hix} {
		x.AdoptStatic(base) // clears what was derived
		x.DeriveDemand(d, &sp.arena)
	}
}

// constant records r as a skeleton constant and returns its index, or -1
// without consts.
func (sp *residual) constant(r rel.Rel) int {
	if sp.consts == nil {
		return -1
	}
	sp.consts[sp.nConst].CopyFrom(r)
	sp.nConst++
	return sp.nConst - 1
}

// bound resolves an operand of the generic program in the lower (hi
// false) or the upper abstract register file.
func (sp *residual) bound(ev *Evaluator, o operand, hi bool) rel.Rel {
	x, regs := &sp.lox, sp.lo
	if hi {
		x, regs = &sp.hix, sp.hi
	}
	switch o.kind {
	case oStatic:
		return ev.static[o.idx]
	case oDyn:
		return dynRel(x, events.Dyn(o.idx))
	}
	return regs[o.idx]
}

// specialise builds the residual program of the bound skeleton. It
// reports false when some let rec's abstract iteration does not converge:
// the skeleton then keeps the generic program, which reports the
// divergence of every candidate that diverges.
func (ev *Evaluator) specialise() bool {
	sp, c := ev.sp, ev.c
	if sp.n != ev.n || sp.consts == nil {
		sp.consts = rel.NewN(ev.n, len(c.prog)+c.nRegs) // a result per instruction, a value per member
		sp.prog = make([]cinstr, 0, len(c.prog))
		sp.live, sp.written, sp.exposed = make([]bool, c.nRegs), make([]bool, c.nRegs), make([]bool, c.nRegs)
	}
	if !ev.boundRun(true, len(c.prog)) {
		return false
	}
	sp.build(c)
	sp.demand = demandOf(sp.prog) | events.DynRF | events.DynCO
	return true
}

// boundRun derives the bound skeleton's rf and co bounds (of the same
// value, or of any) and runs the abstract program's first end
// instructions over them, leaving each register's bounds in sp.lo and
// sp.hi. It reports false when some let rec's abstract iteration does not
// converge. Without consts (cat.Lower's run) it records no constants.
func (ev *Evaluator) boundRun(sameValue bool, end int) bool {
	sp, c, n := ev.sp, ev.c, ev.n
	if sp.n != n || sp.hi == nil {
		b := rel.NewN(n, 4)
		sp.n, sp.rfLo, sp.rfHi, sp.coLo, sp.coHi = n, b[0], b[1], b[2], b[3]
		sp.hi = rel.NewN(n, c.nRegs)
		sp.constAt, sp.fold, sp.member = make([]int, len(c.prog)), make([]bool, len(c.fixGroups)), make([]int, c.nRegs)
		sp.decided, sp.fixedOK = make([]bool, len(c.dChecks)), make([]bool, len(c.dChecks))
	}
	sp.lo = ev.regs // scratch between candidates
	sp.bounds(ev.base, sameValue, c.demand)
	return sp.abstract(ev, end)
}

// abstract runs the generic program once over interval-valued registers,
// lo and hi bounding a register's value for every candidate inside the rf
// and co bounds. Every operator is monotone in each argument except the
// right of \ and ~, which swap the bounds. A let rec group iterates until
// both bounds are stable: by induction over the rounds they then bound
// every round of the concrete iteration from ∅. The run records the
// results, groups and checks the bounds decide. It stops before
// instruction end.
func (sp *residual) abstract(ev *Evaluator, end int) bool {
	c := ev.c
	sp.nConst = 0
	gi, iters := 0, 0
	for pc := 0; pc < end; pc++ {
		in := &c.prog[pc]
		sp.constAt[pc] = -1
		switch in.op {
		case cSnapshot:
			g := &c.fixGroups[in.aux]
			for k, r := range g.regs {
				sp.lo[g.shadows[k]].CopyFrom(sp.lo[r])
				sp.hi[g.shadows[k]].CopyFrom(sp.hi[r])
			}
		case cLoop:
			g := &c.fixGroups[in.aux]
			stable, meet := true, true
			for k, r := range g.regs {
				stable = stable && sp.lo[r].Equal(sp.lo[g.shadows[k]]) && sp.hi[r].Equal(sp.hi[g.shadows[k]])
				meet = meet && sp.lo[r].Equal(sp.hi[r])
			}
			if !stable {
				if iters++; iters > maxFixpointIters {
					return false
				}
				pc = in.aux2 - 1
				continue
			}
			iters, gi, sp.fold[in.aux] = 0, gi+1, meet
			for _, r := range g.regs {
				if meet { // a folded group's members are skeleton constants
					sp.member[r] = sp.constant(sp.lo[r])
				}
			}
		case cCheck:
			// Every check kind is monotone or antitone in its relation, so
			// bounds that agree decide it.
			kind := c.dChecks[in.aux].kind
			sp.fixedOK[in.aux] = applyCheck(kind, sp.bound(ev, in.a, false), &ev.dfs)
			sp.decided[in.aux] = sp.fixedOK[in.aux] == applyCheck(kind, sp.bound(ev, in.a, true), &ev.dfs)
		case cDiff:
			sp.lo[in.dst].DiffInto(sp.bound(ev, in.a, true))
			sp.hi[in.dst].DiffInto(sp.bound(ev, in.a, false))
		default: // the concrete step on each file; sp.lo is ev.regs
			ev.regs = sp.hi
			ev.run(&sp.hix, c.prog[pc:pc+1])
			ev.regs = sp.lo
			ev.run(&sp.lox, c.prog[pc:pc+1])
			if in.op == cCompl {
				sp.lo[in.dst], sp.hi[in.dst] = sp.hi[in.dst], sp.lo[in.dst]
			}
		}
		if d := in.dst; in.op < cSnapshot {
			inGroup := gi < len(c.fixGroups) && pc >= c.fixGroups[gi].start
			if !inGroup && sp.lo[d].Equal(sp.hi[d]) {
				sp.constAt[pc] = sp.constant(sp.hi[d])
			}
		}
	}
	return true
}

// build emits the residual program in one backward pass over the generic
// one, keeping an instruction only if a kept one further on reads its
// result. A decided result becomes a copy of its skeleton constant, and a
// decided check or folded group drops out. An open group is kept whole,
// starting from ∅ as in the generic program, so a divergent one still
// diverges.
func (sp *residual) build(c *Compiled) {
	out := sp.prog[:0]
	clear(sp.live)
	for gi, pc := len(c.fixGroups)-1, len(c.prog)-1; pc >= 0; pc-- {
		in := c.prog[pc]
		if gi >= 0 && pc == c.fixGroups[gi].end {
			g := &c.fixGroups[gi]
			if !sp.fold[gi] {
				for q := g.end; q >= g.start+len(g.regs); q-- {
					out = append(out, c.prog[q])
				}
				sp.groupLive(c, c.prog[g.start+len(g.regs):g.end+1])
			}
			for k := len(g.regs) - 1; k >= 0; k-- {
				r := g.regs[k]
				if !sp.fold[gi] {
					out = append(out, cinstr{op: cZero, dst: r})
				} else if sp.live[r] {
					out = append(out, cinstr{op: cCopy, dst: r, a: operand{kind: oConst, idx: sp.member[r]}})
				}
				sp.live[r] = false
			}
			pc, gi = g.start, gi-1
			continue
		}
		if in.op == cCheck && sp.decided[in.aux] || in.op != cCheck && !sp.live[in.dst] {
			continue
		}
		if k := sp.constAt[pc]; k >= 0 {
			in = cinstr{op: cCopy, dst: in.dst, a: operand{kind: oConst, idx: k}}
		}
		ua, ub, ud := reads(in.op)
		if in.op != cCheck {
			sp.live[in.dst] = ud
		}
		if ua && in.a.kind == oReg {
			sp.live[in.a.idx] = true
		}
		if ub && in.b.kind == oReg {
			sp.live[in.b.idx] = true
		}
		out = append(out, in)
	}
	slices.Reverse(out)
	for i := range out {
		if out[i].op == cLoop { // re-point the loop at its group's snapshot
			for out[i].aux2 = i; out[out[i].aux2].op != cSnapshot; out[i].aux2-- {
			}
		}
	}
	sp.prog = out
}

// reads reports which operands an instruction reads: a, b, and its own
// destination (the in-place operators). It relies on the opcode order.
func reads(op cop) (a, b, dst bool) {
	return op >= cCopy && op <= cSeq || op == cCheck, op == cSeq,
		op >= cUnion && op <= cDiff || op >= cPlus && op <= cRestrict
}

// groupLive carries liveness back over a group's snapshot, body and loop.
// Each of them runs at least once, so a register they write is dead
// before them unless they read it first.
func (sp *residual) groupLive(c *Compiled, code []cinstr) {
	clear(sp.written)
	clear(sp.exposed)
	use := func(r int) { sp.exposed[r] = sp.exposed[r] || !sp.written[r] }
	for _, in := range code {
		if in.op == cSnapshot || in.op == cLoop {
			g := &c.fixGroups[in.aux]
			for k, r := range g.regs {
				use(r)
				if in.op == cLoop {
					use(g.shadows[k])
				}
				sp.written[g.shadows[k]] = true
			}
			continue
		}
		ua, ub, ud := reads(in.op)
		if ua && in.a.kind == oReg {
			use(in.a.idx)
		}
		if ub && in.b.kind == oReg {
			use(in.b.idx)
		}
		if ud {
			use(in.dst)
		}
		sp.written[in.dst] = true
	}
	for r := range sp.live {
		sp.live[r] = sp.live[r] && !sp.written[r] || sp.exposed[r]
	}
}

// Guard: the compiled form and the model satisfy the provider and checker
// contracts.
var (
	_ core.Checker           = (*Compiled)(nil)
	_ core.EvaluatorProvider = (*Compiled)(nil)
	_ core.EvaluatorProvider = (*Model)(nil)
)
