// Package multi implements a multi-event axiomatic checker in the style of
// Mador-Haim et al. (CAV 2012), the comparison point of Tab. IX and
// Fig. 37. Two things distinguish it from the single-event Power model
// of power.cat:
//
//  1. Event expansion: the propagation of one store is represented by one
//     subevent per thread (plus the original commit event), so executions
//     carry many more events. The axioms then run on much larger relation
//     matrices — this is precisely why the paper's single-event herd
//     outperforms multi-event simulation by up to a factor of ten
//     (Sec. 8.3: "on a reduced number of events, classical graph
//     algorithms ... run much faster").
//
//  2. A stronger preserved program order: the per-thread write-propagation
//     model orders a read that misses a write against a later read that
//     sees a propagation-successor of that write. power-cav.cat writes it
//     as power.cat with one more ii0 seed, bigrdw, which reproduces the
//     CAV 2012 verdict on mp+lwsync+addr-bigdetour-addr (Fig. 37):
//     forbidden here, allowed by the paper's Power model.
package multi

import (
	"slices"

	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/models"
	"herdcats/internal/rel"
)

// cav is power-cav.cat, the model that decides every verdict.
var cav = cat.MustBuiltin("power-cav")

// Model is the multi-event Power checker. It implements sim.Checker and
// core.EvaluatorProvider.
type Model struct{}

// Name implements sim.Checker: the name power-cav.cat declares.
func (Model) Name() string { return cav.Name() }

// Check implements sim.Checker with an evaluator borrowed for the call.
func (m Model) Check(x *events.Execution) core.Result {
	ev := m.NewEvaluator()
	defer core.Release(ev)
	return ev.Check(x)
}

// NewEvaluator implements core.EvaluatorProvider: sim.Simulate holds one
// per search worker, each over an evaluator of power-cav's compiled
// program.
func (Model) NewEvaluator() core.Checker { return evaluator{cav.NewEvaluator()} }

// evaluator does not declare sim.SelfDeriving: Expand reads the fully
// derived candidate.
type evaluator struct{ verdict core.Checker }

func (e evaluator) Name() string { return cav.Name() }

// Release hands power-cav's evaluator back to its pool.
func (e evaluator) Release() { core.Release(e.verdict) }

// Check expands the execution into its multi-event form and runs the
// axioms over the expanded relations — the cost profile of Tab. IX — then
// reports power-cav's verdict on the (projection-exact) original
// relations. The expanded SC PER LOCATION check is verdict-preserving
// (structural edges project onto com); the other expanded checks are
// evaluated for their cost but the verdict comes from power-cav, because
// a structural co;rfe path is not an hb (resp. prop) path under
// projection.
func (e evaluator) Check(x *events.Execution) core.Result {
	ex, err := Expand(x)
	if err != nil {
		return core.Result{Err: err}
	}
	_ = ex.HB.Acyclic()
	_ = ex.Obs.Irreflexive()
	_ = ex.CoProp.Acyclic()

	res := e.verdict.Check(x)
	if res.Err == nil && ex.POLocCom.Acyclic() == slices.Contains(res.FailedChecks, "sc-per-location") {
		// Cannot happen: the expansion preserves SC PER LOCATION exactly.
		panic("multi: expanded SC PER LOCATION disagrees with projection")
	}
	return res
}

// fences is power.cat's fence: RM(lwsync) ∪ WW(lwsync) ∪ WW(eieio) ∪ sync.
func fences(x *events.Execution) rel.Rel {
	lw := x.Fences(events.FenceLwsync)
	f := lw.Diff(lw.Restrict(x.W, x.R))
	f.UnionInto(x.Fences(events.FenceEieio).Restrict(x.W, x.W))
	f.UnionInto(x.Fences(events.FenceSync))
	return f
}

// Expanded carries the multi-event form of a candidate execution: the
// original events plus one propagation subevent per (write, thread).
type Expanded struct {
	// N is the expanded universe size.
	N int
	// PropEvent maps (write, thread index) to the propagation subevent ID.
	PropEvent map[[2]int]int

	// The four axiom bodies evaluated on the expanded universe.
	POLocCom rel.Rel
	HB       rel.Rel
	Obs      rel.Rel
	CoProp   rel.Rel
}

// Expand builds the multi-event form: each write gets one propagation
// subevent per thread; rf into thread T is routed through the write's
// T-subevent, and co is duplicated per thread between subevent twins.
// Every expanded cycle projects onto an original cycle and vice versa, so
// the axiom checks are verdict-preserving — just much more expensive,
// which is the point of the comparison.
func Expand(x *events.Execution) (*Expanded, error) {
	threads := map[int]int{} // tid -> dense index
	for _, e := range x.Events {
		if e.Tid != events.InitTid {
			if _, ok := threads[e.Tid]; !ok {
				threads[e.Tid] = len(threads)
			}
		}
	}
	nThreads := len(threads)
	writes := x.W.Elems()

	n := x.N() + len(writes)*nThreads
	ex := &Expanded{N: n, PropEvent: map[[2]int]int{}}
	next := x.N()
	for _, w := range writes {
		for ti := 0; ti < nThreads; ti++ {
			ex.PropEvent[[2]int{w, ti}] = next
			next++
		}
	}

	// lift embeds an original relation in the expanded universe.
	lift := func(r rel.Rel) rel.Rel {
		out := rel.New(n)
		r.ForEachPair(out.Add)
		return out
	}

	// Structural edges: write -> its propagation subevents; co lifted to
	// same-thread subevent twins; external rf routed through the reader's
	// thread subevent.
	structural := rel.New(n)
	for _, w := range writes {
		for ti := 0; ti < nThreads; ti++ {
			structural.Add(w, ex.PropEvent[[2]int{w, ti}])
		}
	}
	x.CO.ForEachPair(func(w1, w2 int) {
		for ti := 0; ti < nThreads; ti++ {
			structural.Add(ex.PropEvent[[2]int{w1, ti}], ex.PropEvent[[2]int{w2, ti}])
		}
	})
	x.RFE.ForEachPair(func(w, r int) {
		structural.Add(ex.PropEvent[[2]int{w, threads[x.Events[r].Tid]}], r)
	})

	// The model's whole derivation — the ppo fixpoint of Fig. 25 and the
	// prop composition of Fig. 18 — runs on the expanded universe, from
	// Power's seeds lifted into it with the structural edges joining rfi
	// in ii0. This is what makes multi-event simulation pay: the same
	// fixpoint over matrices that are larger by one propagation subevent
	// per (write, thread) pair.
	ii0, ci0, cc0 := models.PowerSeeds(x, nil)
	ii0E := lift(ii0)
	ii0E.UnionInto(structural)
	ppoE, ic, err := models.PPOFixpoint(ii0E, lift(ci0), lift(cc0), nil)
	if err != nil {
		return nil, err
	}
	ppoE.UnionInto(ic) // direction filtering happens on projection

	fencesE := lift(fences(x))
	ffenceE := lift(x.Fences(events.FenceSync))
	rfeE := lift(x.RFE).Union(structural)
	hbE := ppoE.Union(fencesE).Union(rfeE)
	propBaseE := fencesE.Union(rfeE.Seq(fencesE)).Seq(hbE.Star())
	comE := lift(x.Com).Union(structural)
	propE := propBaseE.Union(comE.Star().Seq(propBaseE.Star()).Seq(ffenceE).Seq(hbE.Star()))

	ex.POLocCom = lift(x.POLoc.Union(x.Com)).Union(structural)
	ex.HB = hbE
	ex.Obs = lift(x.FRE).Seq(propE).Seq(hbE.Star())
	ex.CoProp = lift(x.CO).Union(structural).Union(propE)
	return ex, nil
}
