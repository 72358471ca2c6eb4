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
//     fence are fixed by the event skeleton. Static bindings, let rec
//     groups and checks, and the static subexpressions hoisted out of
//     dynamic right-hand sides, lower to a static program that runs once
//     per skeleton over a file of static slots.
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
// Both programs are sequences of the same instructions, run by the same
// loop. With every binding an operand, a compiled model also hands out a
// named binding's value on a candidate (Reader): the operational machine
// reads ppo, fence, prop and hb that way.
//
// The AST interpreter (cat.go) remains the reference implementation; the
// equivalence suite asserts byte-identical outcomes between the two.

import (
	"fmt"
	"slices"
	"sync"

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

// operand addresses one input of an instruction: a register of the
// evaluator's scratch file, a static slot (computed once per skeleton), a
// dynamic builtin fetched straight off the candidate execution, or a
// residual program's skeleton constant. The dynamic program writes only
// registers; the static program runs with the slot file as its registers,
// so its own values are oStatic operands the dynamic program reads as is.
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

// cop is an opcode. All relation-valued operations go through the
// destructive kernels of internal/rel, mutating the destination register
// in place.
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
	cCheck               // checks[aux] result ← check kind applied to a
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

// check is one check statement, in statement order; static checks run in
// the static program, the others per candidate.
type check struct {
	kind   checkKind
	name   string
	static bool
}

// builtinSlot is a static slot holding a static builtin (po, addr, sync,
// ...) of the bound skeleton; the programs only read it.
type builtinSlot struct {
	slot int
	name string
}

// Compiled is the specialised form of a Model: a static program (run once
// per skeleton over the slot file) and a flat dynamic instruction sequence
// (run per candidate over pooled registers). A Compiled is immutable and
// safe to share between goroutines; per-search mutable state lives in the
// Evaluator it mints, whose storage goes back to the Compiled's pool on
// Release for the next evaluator to take (DESIGN.md §18.1). It implements
// the simulator's Checker (via one-shot evaluators) and
// core.EvaluatorProvider.
type Compiled struct {
	m          *Model
	sprog      []cinstr
	sGroups    []fixGroup
	nSlots     int
	builtins   []builtinSlot
	prog       []cinstr
	demand     events.Dyn // the dynamic builtins prog fetches
	nRegs      int
	fixGroups  []fixGroup
	checks     []check
	names      map[string]operand // every let binding, as bound at the model's end
	lets       []cinstr           // prog computing the let bindings only (Reader)
	letsDemand events.Dyn
	pool       sync.Pool // *evaluator storage released by earlier evaluators
}

// Name returns the model's declared name.
func (c *Compiled) Name() string { return c.m.name }

// Fingerprint returns the source fingerprint of the underlying model, so
// caches identify the compiled and interpreted forms as the same model.
func (c *Compiled) Fingerprint() string { return c.m.fp }

// Check validates one execution with an evaluator borrowed for the call.
// It is safe for concurrent use; hot loops should hold an Evaluator
// (NewEvaluator) instead so the static program's results are reused
// across candidates.
func (c *Compiled) Check(x *events.Execution) core.Result {
	ev := c.newEvaluator()
	defer ev.Release()
	return ev.Check(x)
}

// NewEvaluator implements core.EvaluatorProvider: the returned checker owns
// a register file of relation buffers and a per-skeleton cache of the
// static program's results. One evaluator serves one goroutine; Release
// hands its storage back for a later evaluator of the model.
func (c *Compiled) NewEvaluator() core.Checker { return c.newEvaluator() }

// newEvaluator mints an evaluator over storage from the pool, or fresh
// storage when the pool has none.
func (c *Compiled) newEvaluator() *Evaluator {
	e, _ := c.pool.Get().(*evaluator)
	if e == nil {
		e = c.newStorage()
	}
	return &Evaluator{c: c, e: e}
}

// newStorage is an evaluator's storage, fresh.
func (c *Compiled) newStorage() *evaluator {
	return &evaluator{
		c:     c,
		ok:    make([]bool, len(c.checks)),
		iters: make([]int, max(len(c.fixGroups), len(c.sGroups))),
	}
}

// --- Lowering ------------------------------------------------------------

// tier is one of the two programs being emitted, with its register
// allocator: the static program's registers are slots (oStatic), the
// dynamic program's are registers (oReg).
type tier struct {
	kind   opndKind
	prog   []cinstr
	groups []fixGroup
	n      int
	free   []int
}

type lowerer struct {
	c        *Compiled
	names    map[string]operand
	builtins map[string]operand // static builtins by name, each in one slot
	st, dy   tier
	t        *tier // the tier being emitted
}

// Compile lowers the model into its specialised evaluator form. The
// program argument is a presizing hint and may be nil; compilation depends
// only on the model source. Lowering a validated model cannot fail today —
// the error return guards internal invariants and future language forms.
func (m *Model) Compile(p *exec.Program) (*Compiled, error) {
	_ = p
	c := &Compiled{m: m}
	lw := &lowerer{c: c, names: map[string]operand{}, builtins: map[string]operand{},
		st: tier{kind: oStatic}, dy: tier{kind: oReg}}
	for _, st := range m.stmts {
		switch st := st.(type) {
		case sLet:
			lw.t = lw.tierOf(lw.isStaticLet(st))
			if err := lw.lowerLet(st); err != nil {
				return nil, err
			}
		case sCheck:
			static := lw.isStatic(st.e)
			lw.t = lw.tierOf(static)
			a, owned, err := lw.compileExpr(st.e)
			if err != nil {
				return nil, err
			}
			lw.emit(cinstr{op: cCheck, a: a, aux: len(c.checks)})
			if owned {
				lw.release(a)
			}
			c.checks = append(c.checks, check{kind: st.kind, name: st.name, static: static})
		}
	}
	c.sprog, c.sGroups, c.nSlots = lw.st.prog, lw.st.groups, lw.st.n
	c.prog, c.fixGroups, c.nRegs = lw.dy.prog, lw.dy.groups, lw.dy.n
	c.demand = demandOf(c.prog)
	c.names = lw.names
	c.lets = c.letsProgram()
	c.letsDemand = demandOf(c.lets)
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

func (lw *lowerer) tierOf(static bool) *tier {
	if static {
		return &lw.st
	}
	return &lw.dy
}

func (lw *lowerer) emit(in cinstr) { lw.t.prog = append(lw.t.prog, in) }

// alloc returns a free register of the current tier.
func (lw *lowerer) alloc() operand {
	t := lw.t
	if k := len(t.free); k > 0 {
		r := t.free[k-1]
		t.free = t.free[:k-1]
		return operand{kind: t.kind, idx: r}
	}
	t.n++
	return operand{kind: t.kind, idx: t.n - 1}
}

func (lw *lowerer) release(o operand) { lw.t.free = append(lw.t.free, o.idx) }

// isStatic reports whether the expression's value is invariant across the
// candidates of a skeleton: it references no dynamic builtin and no
// dynamically-bound name, under the names currently in scope.
func (lw *lowerer) isStatic(e expr) bool {
	switch e := e.(type) {
	case eZero:
		return true
	case eIdent:
		if o, ok := lw.names[e.name]; ok {
			return o.kind != oReg
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
			o  operand
			ok bool
		}
		prev := make(map[string]saved, len(st.binds))
		for _, b := range st.binds {
			old, ok := lw.names[b.name]
			prev[b.name] = saved{old, ok}
			lw.names[b.name] = operand{kind: oStatic}
		}
		defer func() {
			for name, s := range prev {
				if s.ok {
					lw.names[name] = s.o
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

// lowerLet lowers one let statement into the current tier. Each binding
// gets a pinned register (never recycled); recursive groups compile to a
// snapshot/body/loop sequence realising the same Gauss–Seidel Kleene
// iteration as the interpreter — per round, each binding is recomputed in
// order seeing the updated values of earlier ones, until a full round
// changes nothing.
func (lw *lowerer) lowerLet(st sLet) error {
	if !st.rec {
		for _, b := range st.binds {
			a, owned, err := lw.compileExpr(b.e)
			if err != nil {
				return err
			}
			reg := lw.alloc()
			lw.emit(cinstr{op: cCopy, dst: reg.idx, a: a})
			if owned {
				lw.release(a)
			}
			lw.names[b.name] = reg
		}
		return nil
	}
	t := lw.t
	g := fixGroup{start: len(t.prog)}
	for _, b := range st.binds {
		reg := lw.alloc()
		g.regs = append(g.regs, reg.idx)
		g.shadows = append(g.shadows, lw.alloc().idx)
		lw.emit(cinstr{op: cZero, dst: reg.idx})
		lw.names[b.name] = reg
	}
	gi := len(t.groups)
	loopStart := len(t.prog)
	lw.emit(cinstr{op: cSnapshot, aux: gi})
	for i, b := range st.binds {
		a, owned, err := lw.compileExpr(b.e)
		if err != nil {
			return err
		}
		lw.emit(cinstr{op: cCopy, dst: g.regs[i], a: a})
		if owned {
			lw.release(a)
		}
	}
	g.end = len(t.prog)
	lw.emit(cinstr{op: cLoop, aux: gi, aux2: loopStart})
	t.groups = append(t.groups, g)
	return nil
}

// compileExpr lowers one expression into the current tier, returning the
// operand holding its value and whether that operand is a scratch register
// the caller owns (and must release or keep). A static subexpression of a
// dynamic one is hoisted whole into the static program, its slot pinned;
// owned registers are mutated in place where the operators allow
// (commutative operators fold into either owned side), so the generated
// code moves no more words than it must.
func (lw *lowerer) compileExpr(e expr) (operand, bool, error) {
	if lw.t == &lw.dy && lw.isStatic(e) {
		lw.t = &lw.st
		a, _, err := lw.compileExpr(e)
		lw.t = &lw.dy
		return a, false, err
	}
	switch e := e.(type) {
	case eZero:
		d := lw.alloc()
		lw.emit(cinstr{op: cZero, dst: d.idx})
		return d, true, nil
	case eIdent:
		if o, ok := lw.names[e.name]; ok {
			return o, false, nil
		}
		if d, ok := dynNames[e.name]; ok {
			if lw.t == &lw.st {
				return operand{}, false, fmt.Errorf("cat: internal: dynamic builtin %q reached static lowering", e.name)
			}
			return operand{kind: oDyn, idx: int(d)}, false, nil
		}
		if !builtinNames[e.name] {
			return operand{}, false, fmt.Errorf("cat: internal: unknown builtin %q", e.name)
		}
		o, ok := lw.builtins[e.name]
		if !ok { // the static tier is current
			// A slot never written, so never one a temporary held: bind
			// points it at the skeleton's relation.
			lw.st.n++
			o = operand{kind: oStatic, idx: lw.st.n - 1}
			lw.builtins[e.name] = o
			lw.c.builtins = append(lw.c.builtins, builtinSlot{slot: o.idx, name: e.name})
		}
		return o, false, nil
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
					lw.release(r)
				}
				return l, true, nil
			}
			if ro {
				lw.emit(cinstr{op: op, dst: r.idx, a: l})
				return r, true, nil
			}
			d := lw.alloc()
			lw.emit(cinstr{op: cCopy, dst: d.idx, a: l})
			lw.emit(cinstr{op: op, dst: d.idx, a: r})
			return d, true, nil
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
				d = lw.alloc()
				lw.emit(cinstr{op: cCopy, dst: d.idx, a: l})
			}
			lw.emit(cinstr{op: cDiff, dst: d.idx, a: r})
			if ro {
				lw.release(r)
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
			lw.emit(cinstr{op: cSeq, dst: d.idx, a: l, b: r})
			if lo {
				lw.release(l)
			}
			if ro {
				lw.release(r)
			}
			return d, true, nil
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
	d := lw.alloc()
	lw.emit(cinstr{op: cCopy, dst: d.idx, a: a})
	return d, nil
}

// --- Evaluation ----------------------------------------------------------

// Evaluator executes a Compiled model over candidate executions. It caches
// the static program's results per skeleton (the events.Skeleton every
// candidate of one trace combination points at), specialises the dynamic
// program to a skeleton after a few of its candidates, and reuses its
// relation buffers, so steady-state checking allocates nothing. Not safe
// for concurrent use — sim.Simulate holds one per search worker and checks
// only that worker's shards with it, on the worker's goroutine; sibling
// evaluators read the same skeletons concurrently but write only their own
// buffers.
//
// An Evaluator is a handle on storage it borrows from its Compiled's pool.
// Release returns the storage; the handle then panics on any further use,
// so a released evaluator never answers, whoever holds its storage next.
type Evaluator struct {
	c *Compiled
	e *evaluator // nil once released
}

// evaluator is an Evaluator's storage: everything it keeps between
// candidates, and between the evaluators that borrow it in turn.
type evaluator struct {
	c      *Compiled
	n      int
	base   *events.Skeleton
	static []rel.Rel // the slot file
	regs   []rel.Rel
	files  []uint64  // the backing static and regs are carved from
	rs     []rel.Rel // their headers
	ok     []bool    // per check, its latest verdict
	iters  []int
	dfs    rel.DFSScratch
	seen   int                 // candidates of the bound skeleton checked so far
	sp     *residual           // allocated by the first specialisation
	failed map[uint64][]string // the shared FailedChecks, by set of failed checks
}

// Name returns the model's declared name.
func (ev *Evaluator) Name() string { return ev.c.m.name }

// DerivesOwnDemand declares to sim that Check derives the dynamic
// relations it reads (sim.SelfDeriving).
func (ev *Evaluator) DerivesOwnDemand() {}

// Check validates one candidate execution. The execution needs its static
// half (Derive, or AdoptStatic of a derived skeleton); of the dynamic
// relations, Check derives the ones its program reads and no others, so a
// deferred candidate (exec.Request.Deferred) is checked as is. Model
// evaluation failure — a divergent let rec — is reported as Result.Err,
// never as a panic. Check on a released evaluator panics.
func (ev *Evaluator) Check(x *events.Execution) core.Result { return ev.live().check(x) }

// Release hands the evaluator's storage back to its Compiled for a later
// evaluator to take. The evaluator must not be used again: Check and
// Release panic from then on.
func (ev *Evaluator) Release() { ev.c.pool.Put(ev.detach()) }

// detach ends the handle and returns its storage, unbound.
func (ev *Evaluator) detach() *evaluator {
	e := ev.live()
	ev.e = nil
	e.unbind()
	return e
}

// live returns the evaluator's storage, panicking once it is released.
func (ev *Evaluator) live() *evaluator {
	if ev.e == nil {
		panic(fmt.Sprintf("cat: model %q: evaluator used after Release", ev.c.m.name))
	}
	return ev.e
}

// unbind forgets the bound skeleton, keeping the buffers: the next bind
// runs the static program afresh, and the pool keeps no skeleton alive.
func (ev *evaluator) unbind() {
	ev.base, ev.seen = nil, 0
	if ev.sp != nil {
		ev.sp.on = false
	}
}

func (ev *evaluator) check(x *events.Execution) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{Err: ev.evalErr(r)}
		}
	}()
	ev.bindFor(x)
	if ev.seen == specGate {
		if ev.sp == nil {
			ev.sp = &residual{}
		}
		ev.sp.on = ev.specialise()
	}
	ev.seen++
	covered := false
	if sp := ev.sp; sp != nil && sp.on {
		x.DeriveDemand(sp.demand)
		covered = sp.covers(x)
	}
	if covered {
		ev.run(x, ev.regs, ev.sp.prog, ev.c.fixGroups)
		for i, d := range ev.sp.decided {
			if d {
				ev.ok[i] = ev.sp.fixedOK[i]
			}
		}
	} else {
		x.DeriveDemand(ev.c.demand)
		ev.run(x, ev.regs, ev.c.prog, ev.c.fixGroups)
	}
	return ev.result()
}

// result reports the latest verdicts. An invalid result's FailedChecks is
// shared: the evaluator's storage keeps one slice per distinct set of
// failed checks, so a walk allocates one per set rather than one per
// invalid candidate. Callers only read it (core.Result).
func (ev *evaluator) result() core.Result {
	var set uint64
	for i, ok := range ev.ok {
		if !ok {
			if i >= 64 {
				return core.Result{FailedChecks: ev.failedNames()}
			}
			set |= 1 << uint(i)
		}
	}
	if set == 0 {
		return core.Result{Valid: true}
	}
	failed, ok := ev.failed[set]
	if !ok {
		if ev.failed == nil {
			ev.failed = map[uint64][]string{}
		}
		failed = ev.failedNames()
		ev.failed[set] = failed
	}
	return core.Result{FailedChecks: failed}
}

// failedNames lists the checks whose latest verdict failed, in the
// model's order, capped so that an append copies rather than writes
// through a shared slice.
func (ev *evaluator) failedNames() []string {
	var failed []string
	for i, ck := range ev.c.checks {
		if !ev.ok[i] {
			failed = append(failed, ck.name)
		}
	}
	return slices.Clip(failed)
}

func (ev *evaluator) evalErr(r any) error {
	return fmt.Errorf("cat: model %q evaluation failed: %v", ev.c.m.name, r)
}

// bindFor binds the skeleton of x, unless it is bound already.
func (ev *evaluator) bindFor(x *events.Execution) {
	if ev.base != x.Skeleton || ev.n != x.N() {
		ev.bind(x.Skeleton)
	}
}

// bind runs the static program against a new skeleton: the static
// builtins fill their slots, the program computes the static bindings and
// hoisted expressions into the slot file and records the static checks'
// verdicts, and the files are re-carved from the evaluator's backing for
// a new universe size. Candidates sharing the skeleton skip all of this.
func (ev *evaluator) bind(base *events.Skeleton) {
	c, n := ev.c, base.N()
	if ev.n != n || ev.static == nil {
		ev.rs = rel.Carve(&ev.files, ev.rs, n, c.nSlots+c.nRegs)
		ev.static, ev.regs = ev.rs[:c.nSlots:c.nSlots], ev.rs[c.nSlots:]
		if ev.sp != nil {
			// The abstract run swaps register headers between the two
			// files at each ~, so some of sp.hi may point into the
			// backing just re-carved: re-carve sp's files too.
			ev.sp.hi = nil
		}
	}
	ev.base, ev.n = nil, n // bound only once the static program has run
	for _, b := range c.builtins {
		ev.static[b.slot], _ = staticRel(base, b.name)
	}
	ev.run(&events.Execution{Skeleton: base}, ev.static, c.sprog, c.sGroups) // reads no rf or co
	ev.base = base
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

// fetch resolves an operand against the register file regs, the static
// slot file, the skeleton constants, or the candidate execution. The
// register case is small enough to inline into run.
func (ev *evaluator) fetch(x *events.Execution, regs []rel.Rel, o operand) rel.Rel {
	if o.kind == oReg {
		return regs[o.idx]
	}
	return ev.fetchOther(x, o)
}

func (ev *evaluator) fetchOther(x *events.Execution, o operand) rel.Rel {
	switch o.kind {
	case oStatic:
		return ev.static[o.idx]
	case oConst:
		return ev.sp.consts[o.idx]
	default:
		return dynRel(x, events.Dyn(o.idx))
	}
}

func (ev *evaluator) dirSet(x *events.Skeleton, d byte) rel.Set {
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

// run executes a program over the register file regs: the static program
// over the slot file, the generic or a residual dynamic program over the
// registers. groups are the program's let rec groups.
func (ev *evaluator) run(x *events.Execution, regs []rel.Rel, prog []cinstr, groups []fixGroup) {
	c := ev.c
	clear(ev.iters)
	for pc := 0; pc < len(prog); pc++ {
		in := &prog[pc]
		switch in.op {
		case cZero:
			regs[in.dst].Clear()
		case cCopy:
			regs[in.dst].CopyFrom(ev.fetch(x, regs, in.a))
		case cUnion:
			regs[in.dst].UnionInto(ev.fetch(x, regs, in.a))
		case cInter:
			regs[in.dst].InterInto(ev.fetch(x, regs, in.a))
		case cDiff:
			regs[in.dst].DiffInto(ev.fetch(x, regs, in.a))
		case cSeq:
			regs[in.dst].SeqInto(ev.fetch(x, regs, in.a), ev.fetch(x, regs, in.b))
		case cPlus:
			regs[in.dst].PlusInPlace()
		case cUnionID:
			regs[in.dst].UnionIdentity()
		case cCompl:
			regs[in.dst].ComplementInPlace()
		case cRestrict:
			regs[in.dst].RestrictInPlace(
				ev.dirSet(x.Skeleton, byte(in.aux>>8)), ev.dirSet(x.Skeleton, byte(in.aux)))
		case cSnapshot:
			g := &groups[in.aux]
			for k, r := range g.regs {
				regs[g.shadows[k]].CopyFrom(regs[r])
			}
		case cLoop:
			g := &groups[in.aux]
			changed := false
			for k, r := range g.regs {
				if !regs[r].Equal(regs[g.shadows[k]]) {
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
			ev.ok[in.aux] = applyCheck(c.checks[in.aux].kind, ev.fetch(x, regs, in.a), &ev.dfs)
		}
	}
}

// --- Binding export ------------------------------------------------------

// Reader hands out the values of some of a compiled model's let bindings
// on candidate executions — ppo, fence, prop and hb, say, for the
// operational machine. A name means its binding at the end of the model (a
// later let shadows an earlier one). A Reader owns one evaluator, so it
// serves one goroutine, until Release hands the evaluator back.
type Reader struct {
	ev  *Evaluator
	ops []operand
}

// Reader resolves the named let bindings; a builtin or an unbound name is
// an error.
func (c *Compiled) Reader(names ...string) (*Reader, error) {
	var ops []operand
	for _, name := range names {
		o, ok := c.names[name]
		if !ok {
			return nil, fmt.Errorf("cat: model %q binds no %q", c.m.name, name)
		}
		ops = append(ops, o)
	}
	return &Reader{ev: c.newEvaluator(), ops: ops}, nil
}

// Release hands the Reader's evaluator back to its Compiled; Values panics
// from then on.
func (r *Reader) Release() { r.ev.Release() }

// letsProgram is the dynamic program without its checks and whatever only
// they read: the residual build, with every check decided, nothing folded
// and every let binding's register live.
func (c *Compiled) letsProgram() []cinstr {
	sp := &residual{
		prog:    make([]cinstr, 0, len(c.prog)),
		constAt: make([]int, len(c.prog)),
		fold:    make([]bool, len(c.fixGroups)),
		decided: make([]bool, len(c.checks)),
		live:    make([]bool, c.nRegs), written: make([]bool, c.nRegs), exposed: make([]bool, c.nRegs),
	}
	for i := range sp.constAt {
		sp.constAt[i] = -1
	}
	for i := range sp.decided {
		sp.decided[i] = true
	}
	for _, o := range c.names {
		if o.kind == oReg {
			sp.live[o.idx] = true
		}
	}
	sp.build(c)
	return sp.prog
}

// Values evaluates the model on the candidate x and returns the values of
// the Reader's bindings, in its order: fresh relations the caller owns,
// since the evaluator reuses its registers for the next candidate. Like
// Check it derives the dynamic relations it reads, and reports evaluation
// failure as an error, never a panic.
func (r *Reader) Values(x *events.Execution) ([]rel.Rel, error) {
	out := rel.NewN(x.N(), len(r.ops))
	if err := r.ValuesInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ValuesInto is Values into relations the caller keeps: it overwrites
// dst[i], a relation over x's events, with the i-th binding's value.
func (r *Reader) ValuesInto(x *events.Execution, dst []rel.Rel) (err error) {
	ev := r.ev.live()
	defer func() {
		if p := recover(); p != nil {
			err = ev.evalErr(p)
		}
	}()
	ev.bindFor(x)
	x.DeriveDemand(ev.c.letsDemand)
	ev.run(x, ev.regs, ev.c.lets, ev.c.fixGroups)
	for i, o := range r.ops {
		dst[i].CopyFrom(ev.fetch(x, ev.regs, o))
	}
	return nil
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
	lo, hi                 []rel.Rel        // the abstract register files
	bnds                   []rel.Rel        // rf and co's bounds, hi, then lox and hix's dynamic buffers, carved from bndBuf
	bndBuf                 []uint64
	record                 bool      // the bound run records skeleton constants
	consts                 []rel.Rel // skeleton constants; the first nConst are in use
	constBuf               []uint64  // the backing consts is carved from, for constN events
	constN                 int
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
// Its four subset tests run as one pass over the rows.
func (sp *residual) covers(x *events.Execution) bool {
	return rel.Within2(x.MemRF(), sp.rfLo, sp.rfHi, x.CO, sp.coLo, sp.coHi)
}

// bounds derives rf and co's bounds from the skeleton's events, matching
// exec's enumeration: a read takes its value from a same-location write,
// of the same value when sameValue is set (rf's lower bound holds the
// reads with one such write), and a location's coherence order starts at
// its initial write and orders the others every way. Everything derived
// from rf and co is monotone in them, so deriving the demand d on both
// bounds bounds fr, com, sw and the e/i splits.
func (sp *residual) bounds(base *events.Skeleton, sameValue bool, d events.Dyn) {
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
	sp.lox.RF, sp.lox.CO = sp.rfLo, sp.coLo
	sp.hix.RF, sp.hix.CO = sp.rfHi, sp.coHi
	for _, x := range []*events.Execution{&sp.lox, &sp.hix} {
		x.AdoptStatic(base) // clears what was derived
		x.DeriveDemand(d)
	}
}

// constant records r as a skeleton constant and returns its index, or -1
// when the run records none.
func (sp *residual) constant(r rel.Rel) int {
	if !sp.record {
		return -1
	}
	sp.consts[sp.nConst].CopyFrom(r)
	sp.nConst++
	return sp.nConst - 1
}

// bound resolves an operand of the generic program in the lower (hi
// false) or the upper abstract register file.
func (sp *residual) bound(ev *evaluator, o operand, hi bool) rel.Rel {
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
func (ev *evaluator) specialise() bool {
	sp, c := ev.sp, ev.c
	if sp.constN != ev.n || sp.consts == nil {
		sp.consts = rel.Carve(&sp.constBuf, sp.consts, ev.n, len(c.prog)+c.nRegs) // a result per instruction, a value per member
		sp.constN = ev.n
	}
	sp.record = true
	if sp.prog == nil {
		sp.prog = make([]cinstr, 0, len(c.prog))
		sp.live, sp.written, sp.exposed = make([]bool, c.nRegs), make([]bool, c.nRegs), make([]bool, c.nRegs)
	}
	if !ev.boundRun(true, len(c.prog)) {
		return false
	}
	clear(sp.live)
	sp.build(c)
	sp.demand = demandOf(sp.prog) | events.DynRF | events.DynCO
	return true
}

// boundRun derives the bound skeleton's rf and co bounds (of the same
// value, or of any) and runs the abstract program's first end
// instructions over them, leaving each register's bounds in sp.lo and
// sp.hi. It reports false when some let rec's abstract iteration does not
// converge. Unless sp.record is set (cat.Lower's run) it records no
// constants.
func (ev *evaluator) boundRun(sameValue bool, end int) bool {
	sp, c, n := ev.sp, ev.c, ev.n
	if sp.n != n || sp.hi == nil {
		sp.bnds = rel.Carve(&sp.bndBuf, sp.bnds, n, 4+c.nRegs+2*events.DynBuffers)
		b := sp.bnds
		sp.n, sp.rfLo, sp.rfHi, sp.coLo, sp.coHi = n, b[0], b[1], b[2], b[3]
		b = b[4:]
		sp.hi, b = b[:c.nRegs:c.nRegs], b[c.nRegs:]
		sp.lox.AdoptDynamicBuffers(b[:events.DynBuffers])
		sp.hix.AdoptDynamicBuffers(b[events.DynBuffers:])
	}
	if sp.constAt == nil {
		sp.constAt, sp.fold, sp.member = make([]int, len(c.prog)), make([]bool, len(c.fixGroups)), make([]int, c.nRegs)
		sp.decided, sp.fixedOK = make([]bool, len(c.checks)), make([]bool, len(c.checks))
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
func (sp *residual) abstract(ev *evaluator, end int) bool {
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
			kind := c.checks[in.aux].kind
			sp.fixedOK[in.aux] = applyCheck(kind, sp.bound(ev, in.a, false), &ev.dfs)
			sp.decided[in.aux] = sp.fixedOK[in.aux] == applyCheck(kind, sp.bound(ev, in.a, true), &ev.dfs)
		case cDiff:
			sp.lo[in.dst].DiffInto(sp.bound(ev, in.a, true))
			sp.hi[in.dst].DiffInto(sp.bound(ev, in.a, false))
		default: // the concrete step on each file
			ev.run(&sp.hix, sp.hi, c.prog[pc:pc+1], c.fixGroups)
			ev.run(&sp.lox, sp.lo, c.prog[pc:pc+1], c.fixGroups)
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
// result, or it writes a register sp.live holds on entry. A decided result
// becomes a copy of its skeleton constant, and a decided check or folded
// group drops out. An open group is kept whole, starting from ∅ as in the
// generic program, so a divergent one still diverges.
func (sp *residual) build(c *Compiled) {
	out := sp.prog[:0]
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
