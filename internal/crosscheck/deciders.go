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
// The deciders here take their compiled test from exec.ProgramFor(ctx,
// test): on a ctx without a shared program each compiles afresh.
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
	p, done, err := exec.ProgramFor(ctx, test)
	defer done() // after the judges' releases: they may hold its skeletons
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
// one instance (shareBMC), released when the comparison returns; on any
// other ctx each encodes the test alone and releases its instance.
func BMC(id bmc.ModelID) Decider { return bmcDecider{id: id} }

func (d bmcDecider) Name() string { return "bmc:" + d.id.String() }

func (d bmcDecider) Decide(ctx context.Context, test *litmus.Test) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	p, done, err := exec.ProgramFor(ctx, test)
	if err != nil {
		return false, err
	}
	defer done() // after the instance, which holds the program's traces
	sl, ok := ctx.Value(bmcKey{}).(*bmcSlot)
	if !ok || sl.test != test {
		sl = &bmcSlot{test: test} // an instance for this decider alone
		defer sl.release()
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.over {
		return false, errComparisonOver
	}
	if sl.inst == nil && sl.err == nil {
		sl.inst, sl.err = bmc.EncodeShared(p)
	}
	if sl.err != nil {
		return false, sl.err
	}
	return sl.inst.Decide(d.id)
}

// errComparisonOver is a bmc decider's answer on the context of a
// comparison that has returned.
var errComparisonOver = errors.New("crosscheck: bmc decider run on the context of a finished comparison")

// bmcKey is the context key of a comparison's shared SAT instance.
type bmcKey struct{}

// bmcSlot is the SAT instance shareBMC attaches to a context: the
// model-free part of test's encoding, built by the first bmc decider that
// runs, onto which each bmc decider lowers its model behind an activation
// literal (DESIGN.md §16). mu serialises the deciders, as one solver
// answers them all. Once over, the instance is released and a decider
// on the slot gets an error.
type bmcSlot struct {
	test   *litmus.Test
	mu     sync.Mutex
	inst   *bmc.Instance
	err    error
	over   bool
	shared bool // attached to a comparison's context by shareBMC
}

// shareBMC returns a context carrying one SAT instance for test, shared by
// every bmc decider that judges test under it, and the function that
// releases the instance once none of them runs any more.
func shareBMC(ctx context.Context, test *litmus.Test) (context.Context, func()) {
	sl := &bmcSlot{test: test, shared: true}
	return context.WithValue(ctx, bmcKey{}, sl), sl.release
}

// slotReleased, when set, is told of every release of a slot: whether a
// comparison shared it, and whether it held an instance (tests count
// releases with it).
var slotReleased func(shared, hadInstance bool)

// programReleased, when set, is told each time a comparison has released
// its shared program, right after its SAT slot (tests count releases and
// check their order with it).
var programReleased func()

// release ends the slot: it releases the instance, if one was encoded.
func (sl *bmcSlot) release() {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.over {
		panic("crosscheck: bmc slot released twice")
	}
	sl.over = true
	if slotReleased != nil {
		slotReleased(sl.shared, sl.inst != nil)
	}
	if sl.inst != nil {
		sl.inst.Release()
		sl.inst = nil
	}
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
