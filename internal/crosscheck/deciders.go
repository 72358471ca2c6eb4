package crosscheck

import (
	"context"
	"errors"
	"sync"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
	"herdcats/internal/machine"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

// Decider answers the whole-test question every engine in the repository
// can be asked: is the test's final condition observable? Names must be
// unique per behaviour — ComparePairs runs each distinct name once per
// test, and the mining store uses names as content-address material.
// The deciders here take their compiled test, and the bmc deciders their
// SAT instance, from the comparison's scope on ctx (ProgramFor for
// deciders defined elsewhere): on a ctx with no comparison of the test
// each builds its own, released when its Decide returns. On the context
// of a finished comparison every one of them fails with the same error.
type Decider interface {
	Name() string
	Decide(ctx context.Context, test *litmus.Test) (allowed bool, err error)
}

// --- the candidate walk ----------------------------------------------------

// judge reports whether its engine accepts one candidate of a walk.
type judge func(c *exec.Candidate) (accepted bool, err error)

// walker is a decider that judges candidates: the axiomatic checkers, the
// machine and the hardware. Only the types themselves implement it, so a
// wrapper that embeds a Decider is decided through its own Decide.
// newJudge's judge serves one walk of p, on one goroutine; its release,
// nil when the judge borrowed nothing, hands the evaluators it borrowed
// back to their pools once the walk is over.
type walker interface {
	Decider
	newJudge(p *exec.Program) (j judge, release func(), err error)
}

// walk decides every walker over one deferred search of the test's program
// (DESIGN.md §18). Each undecided judge sees, in search order, the
// candidates that satisfy the condition: its walker is allowed at the first
// it accepts and fails at its first error. The search stops once all are
// decided; a search error (cancellation) fails every undecided walker.
func walk(ctx context.Context, test *litmus.Test, ws []walker) (allowed []bool, errs []error) {
	allowed, errs = make([]bool, len(ws)), make([]error, len(ws))
	judges := make([]judge, len(ws)) // nil once decided
	undecided := 0
	sc, done := scopeFor(ctx, test)
	defer done() // after the judges' releases: they may hold its skeletons
	p, err := sc.program()
	for i, w := range ws {
		if errs[i] = err; err == nil {
			var release func()
			judges[i], release, errs[i] = w.newJudge(p)
			if release != nil {
				defer release()
			}
		}
		if errs[i] == nil {
			undecided++
		}
	}
	if undecided == 0 {
		return allowed, errs
	}
	err = p.Search(ctx, exec.Request{Deferred: true}, func(c *exec.Candidate) bool {
		if p.Test.Cond != nil && !p.Test.Cond.Eval(c.State) {
			return true
		}
		for i, j := range judges {
			if j == nil {
				continue
			}
			allowed[i], errs[i] = j(c)
			if allowed[i] || errs[i] != nil {
				judges[i] = nil
				undecided--
			}
		}
		return undecided > 0
	})
	for i, j := range judges {
		if j != nil {
			errs[i] = err
		}
	}
	return allowed, errs
}

// decideAlone is a walker's Decide: the walk with its judge alone.
func decideAlone(ctx context.Context, test *litmus.Test, w walker) (bool, error) {
	allowed, errs := walk(ctx, test, []walker{w})
	return allowed[0], errs[0]
}

// --- axiomatic simulation --------------------------------------------------

type axiomatic struct {
	prefix string
	model  sim.Checker
}

// Axiomatic wraps a checker as a decider over the single-event simulator,
// under the "sim" prefix. Pairs uses it for the hand-written zoo's side of
// its native-vs-cat pairs; MustCat wraps the production models.
func Axiomatic(m sim.Checker) Decider { return axiomatic{prefix: "sim", model: m} }

// MustCat loads the builtin cat model by file name ("power", "sc", "tso",
// ...) and wraps it as a decider; a missing model is a programming error.
// The "cat" prefix keeps it distinct from the native model of the same
// name, so a pair (native, cat) compares two engines instead of
// collapsing into one.
func MustCat(name string) Decider {
	return axiomatic{prefix: "cat", model: cat.MustBuiltin(name)}
}

func (d axiomatic) Name() string { return d.prefix + ":" + d.model.Name() }

func (d axiomatic) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	return decideAlone(ctx, test, d)
}

// newJudge checks each candidate with one evaluator of the model, which
// derives what it reads itself or is handed the fully derived candidate.
func (d axiomatic) newJudge(*exec.Program) (judge, func(), error) {
	ck := d.model
	var release func()
	if prov, ok := ck.(core.EvaluatorProvider); ok {
		if ev := prov.NewEvaluator(); ev != nil {
			ck, release = ev, func() { core.Release(ev) }
		}
	}
	_, self := ck.(sim.SelfDeriving)
	return func(c *exec.Candidate) (bool, error) {
		if !self {
			c.X.DeriveDemand(events.DynAll)
		}
		res := ck.Check(c.X)
		return res.Valid, res.Err
	}, release, nil
}

// --- operational machine ---------------------------------------------------

type operational struct{ model *cat.Model }

// Operational wraps the intermediate machine (Thm. 7.1) under the cat
// model m, which binds its ppo, fence, prop, hb and po-loc-sc
// (machine.NewModel): the test is allowed iff some candidate execution is
// accepted by the machine and satisfies the final condition.
func Operational(m *cat.Model) Decider { return operational{model: m} }

func (d operational) Name() string { return "machine:" + d.model.Name() }

func (d operational) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	return decideAlone(ctx, test, d)
}

func (d operational) newJudge(*exec.Program) (judge, func(), error) {
	md, err := machine.NewModel(d.model)
	if err != nil {
		return nil, nil, err
	}
	return func(c *exec.Candidate) (bool, error) {
		c.X.DeriveDemand(events.DynAll)
		return md.Accepts(c.X)
	}, md.Release, nil
}

// --- SAT-based bounded model checking --------------------------------------

type bmcDecider struct{ id bmc.ModelID }

// BMC wraps the SAT encoding of the given model: the test is allowed iff
// the instance conjoining the model's axioms with the condition is
// satisfiable. Under ComparePairs the bmc deciders of one comparison share
// the scope's instance, released when the comparison returns; on any
// other ctx each encodes the test alone and releases its instance.
func BMC(id bmc.ModelID) Decider { return bmcDecider{id: id} }

func (d bmcDecider) Name() string { return "bmc:" + d.id.String() }

func (d bmcDecider) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	sc, done := scopeFor(ctx, test)
	defer done()
	return sc.decideBMC(d.id)
}

// --- the comparison's scope ----------------------------------------------

// scope is what the deciders of one comparison share (DESIGN.md §18): the
// test's compiled program, whose trace sets and skeletons no model
// changes, and the model-free part of its SAT encoding, onto which each
// bmc decider lowers its model behind an activation literal (§16). Both
// are built on first use. mu guards them and serialises the bmc deciders,
// as one solver answers them all. Once over, both are released and every
// decider on the scope gets errComparisonOver. A private scope (scopeFor)
// serves one Decide, and its program memoises nothing.
type scope struct {
	test       *litmus.Test
	comparison bool // attached by ComparePairs

	mu         sync.Mutex
	p          *exec.Program
	perr, ierr error // the compile's and the encode's
	inst       *bmc.Instance
	over       bool
}

// scopeKey is the context key of a comparison's scope.
type scopeKey struct{}

// errComparisonOver is every decider's answer on the context of a
// comparison that has returned.
var errComparisonOver = errors.New("crosscheck: decider run on the context of a finished comparison")

// withScope returns a context carrying a comparison's scope for test, and
// the function that releases it once no decider runs under it any more.
func withScope(ctx context.Context, test *litmus.Test) (context.Context, func()) {
	sc := &scope{test: test, comparison: true}
	return context.WithValue(ctx, scopeKey{}, sc), sc.release
}

// scopeFor returns ctx's scope for test and a no-op done, or a private
// scope and its release, which the caller calls once its Decide is over.
func scopeFor(ctx context.Context, test *litmus.Test) (sc *scope, done func()) {
	if sc, ok := ctx.Value(scopeKey{}).(*scope); ok && sc.test == test {
		return sc, func() {}
	}
	sc = &scope{test: test}
	return sc, sc.release
}

// program returns the scope's program, compiling it on first use.
func (sc *scope) program() (*exec.Program, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.programLocked()
}

func (sc *scope) programLocked() (*exec.Program, error) {
	if sc.over {
		return nil, errComparisonOver
	}
	if sc.p == nil && sc.perr == nil {
		compile := exec.Compile
		if sc.comparison {
			compile = exec.CompileShared
		}
		sc.p, sc.perr = compile(sc.test)
	}
	return sc.p, sc.perr
}

// decideBMC answers model id on the scope's SAT instance, encoding it on
// first use.
func (sc *scope) decideBMC(id bmc.ModelID) (bool, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	p, err := sc.programLocked()
	if err != nil {
		return false, err
	}
	if sc.inst == nil && sc.ierr == nil {
		sc.inst, sc.ierr = bmc.EncodeShared(p)
	}
	if sc.ierr != nil {
		return false, sc.ierr
	}
	return sc.inst.Decide(id)
}

// scopeReleased, when set, is told of each step of every scope release as
// it happens — "instance", "program", then "end" — and whether a
// comparison attached the scope (tests count releases and check their
// order with it).
var scopeReleased func(comparison bool, step string)

// release ends the scope: it releases the instance, which holds the
// program's traces, then the program. A second release panics.
func (sc *scope) release() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.over {
		panic("crosscheck: comparison scope released twice")
	}
	sc.over = true
	if sc.inst != nil {
		sc.inst.Release()
		sc.tell("instance")
	}
	if sc.p != nil {
		sc.p.Release()
		sc.tell("program")
	}
	sc.tell("end")
}

// tell tells scopeReleased of one step of the scope's release.
func (sc *scope) tell(step string) {
	if scopeReleased != nil {
		scopeReleased(sc.comparison, step)
	}
}

// ProgramFor returns the compiled test that ctx's comparison shares for
// test, compiling it on first use, and a no-op done: the program belongs
// to the comparison. On a context with no comparison of test it compiles
// afresh (exec.Compile, which memoises nothing), and done releases that
// program once the caller is finished with it. done is never nil. On the
// context of a finished comparison it returns errComparisonOver.
func ProgramFor(ctx context.Context, test *litmus.Test) (p *exec.Program, done func(), err error) {
	sc, done := scopeFor(ctx, test)
	p, err = sc.program()
	return p, done, err
}

// --- simulated hardware ----------------------------------------------------

type hwDecider struct{ m hardware.Machine }

// Hardware wraps a simulated machine: the test is allowed iff the machine
// observes its condition. Only useful in Subset pairs — hardware observes
// at most what its model allows (and less, per its restrictions).
func Hardware(m hardware.Machine) Decider { return hwDecider{m: m} }

func (d hwDecider) Name() string { return "hw:" + d.m.Name }

func (d hwDecider) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	return decideAlone(ctx, test, d)
}

// newJudge asks one observer of the machine about each candidate. Every
// engine an observer runs is a compiled cat evaluator, which derives what
// it reads itself.
func (d hwDecider) newJudge(p *exec.Program) (judge, func(), error) {
	o := d.m.Observer()
	return func(c *exec.Candidate) (bool, error) {
		return o.Observes(c.X, p.Test.Name), nil
	}, o.Release, nil
}

// --- the expected-agreement table ------------------------------------------

// Pairs returns the expected-agreement table for tests of one dialect —
// every relation between deciders that the paper (or an in-repo theorem
// test) guarantees, so any violation found by mining is a genuine engine
// bug. The table is the daemon's default workload and the ground truth of
// the promoted crosscheck tests. Every model in it is a builtin cat file,
// except the native side of one pair per weak dialect: the hand-written
// zoo's Power (resp. ARM) against its cat model.
func Pairs(arch litmus.Arch) []Pair {
	catSC, catTSO := MustCat("sc"), MustCat("tso")
	switch arch {
	case litmus.PPC:
		catPower := MustCat("power")
		power7, _ := hardware.ByName("power7")
		return []Pair{
			{A: catSC, B: BMC(bmc.SC), Rel: Equal,
				Why: "SAT encoding of SC equals the simulator (Fig. 21)"},
			{A: catTSO, B: BMC(bmc.TSO), Rel: Equal,
				Why: "SAT encoding of TSO equals the simulator (Fig. 21)"},
			{A: catPower, B: BMC(bmc.Power), Rel: Equal,
				Why: "SAT encoding of Power equals the simulator"},
			{A: Axiomatic(models.Power), B: catPower, Rel: Equal,
				Why: "the Fig. 38 cat model is the native Power model"},
			{A: catPower, B: Operational(cat.MustBuiltin("power")), Rel: Equal,
				Why: "operational acceptance equals axiomatic validity (Thm. 7.1)"},
			{A: MustCat("power-cav"), B: catPower, Rel: Subset,
				Why: "the CAV12 multi-event ppo is a superset of Power's"},
			{A: catSC, B: catTSO, Rel: Subset,
				Why: "SC-valid executions stay valid under weaker models"},
			{A: catSC, B: catPower, Rel: Subset,
				Why: "SC-valid executions stay valid under weaker models"},
			{A: catPower, B: MustCat("power-nodetour"), Rel: Subset,
				Why: "the static ppo is weaker than the full one (Sec. 8.2)"},
			{A: Hardware(power7), B: catPower, Rel: Subset,
				Why: "Power hardware does not invalidate the Power model (Sec. 8.1.1)"},
		}
	case litmus.ARM:
		catARM := MustCat("arm")
		return []Pair{
			{A: catSC, B: BMC(bmc.SC), Rel: Equal,
				Why: "SC ignores fences; the SAT encoding equals the simulator"},
			{A: catTSO, B: BMC(bmc.TSO), Rel: Equal,
				Why: "TSO on ARM dialect: the SAT encoding equals the simulator"},
			{A: Axiomatic(models.ARM), B: catARM, Rel: Equal,
				Why: "the cat ARM model is the native proposed-ARM model"},
			{A: catARM, B: BMC(bmc.ARM), Rel: Equal,
				Why: "SAT encoding of ARM equals the simulator"},
			{A: catSC, B: catARM, Rel: Subset,
				Why: "SC-valid executions stay valid under weaker models"},
		}
	case litmus.X86:
		return []Pair{
			{A: catSC, B: BMC(bmc.SC), Rel: Equal,
				Why: "SAT encoding of SC equals the simulator"},
			{A: catTSO, B: BMC(bmc.TSO), Rel: Equal,
				Why: "SAT encoding of TSO equals the simulator"},
			{A: catSC, B: catTSO, Rel: Subset,
				Why: "SC-valid executions stay valid under weaker models"},
		}
	}
	return nil
}
