package models

import (
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// Architecture is the triple (ppo, fences, prop) of Sec. 4.1.
// Each method receives a derived candidate execution and returns a fresh
// relation over its events that the caller owns: drawn from ar, to be
// handed back with Put, or newly allocated when ar is nil.
type Architecture interface {
	// Name identifies the architecture, e.g. "Power".
	Name() string
	// PPO returns the preserved program order, or an error when it
	// cannot be computed (a fixpoint that does not converge).
	PPO(x *events.Execution, ar *rel.Arena) (rel.Rel, error)
	// Fences returns the fence relation of the model (the union of the
	// fence flavours the architecture recognises, already port-filtered,
	// e.g. lwsync \ WR on Power).
	Fences(x *events.Execution, ar *rel.Arena) rel.Rel
	// Prop returns the propagation order. It receives the architecture's
	// own ppo and fences (as computed by PPO and Fences) so instances can
	// build prop from hb without recomputing the ppo fixpoint — prop is
	// defined in terms of fences and hb in Fig. 18.
	Prop(x *events.Execution, ppo, fences rel.Rel, ar *rel.Arena) rel.Rel
}

// Axiom names one of the four checks of Fig. 5.
type Axiom uint8

// The four axioms, in the paper's order.
const (
	SCPerLocation Axiom = iota
	NoThinAir
	Observation
	Propagation
)

// String returns the paper's name for the axiom.
func (a Axiom) String() string {
	switch a {
	case SCPerLocation:
		return "SC PER LOCATION"
	case NoThinAir:
		return "NO THIN AIR"
	case Observation:
		return "OBSERVATION"
	case Propagation:
		return "PROPAGATION"
	}
	return "UNKNOWN"
}

// Options selects documented variations of the axioms (Sec. 4.8–4.9).
type Options struct {
	// AllowLoadLoadHazard drops read-read pairs from po-loc in
	// SC PER LOCATION (coRR allowed): Sparc RMO, pre-Power4, "ARM llh".
	AllowLoadLoadHazard bool
	// WeakPropagation replaces acyclic(co ∪ prop) with
	// irreflexive(prop ; co), the C++ R-A HBVSMO-style check.
	WeakPropagation bool
}

// Check is the generic axiomatic model of Fig. 5: a candidate execution
// (E, po, rf, co) is valid for an architecture (ppo, fences, prop) iff the
// four axioms hold:
//
//	SC PER LOCATION  acyclic(po-loc ∪ com)
//	NO THIN AIR      acyclic(hb)            hb = ppo ∪ fences ∪ rfe
//	OBSERVATION      irreflexive(fre ; prop ; hb*)
//	PROPAGATION      acyclic(co ∪ prop)
//
// It validates x against arch under the given axiom options, drawing
// every intermediate relation from ar: with a warm arena (one per search
// worker, reused across candidates) the steady-state check allocates no
// bitsets, and a nil arena allocates per call. All four axioms are always
// evaluated so that the result carries the full classification, not just
// the first failure.
func Check(arch Architecture, x *events.Execution, opts Options, ar *rel.Arena) core.Result {
	n := x.N()
	var failed []string

	// SC PER LOCATION: acyclic(po-loc ∪ com), honouring load-load hazards.
	sc := ar.Get(n)
	sc.CopyFrom(x.POLoc)
	if opts.AllowLoadLoadHazard {
		rr := ar.Get(n)
		rr.CopyFrom(x.POLoc)
		rr.RestrictInPlace(x.R, x.R)
		sc.DiffInto(rr)
		ar.Put(rr)
	}
	sc.UnionInto(x.Com)
	if !sc.AcyclicScratch(ar.DFS()) {
		failed = append(failed, SCPerLocation.String())
	}
	ar.Put(sc)

	ppo, err := arch.PPO(x, ar)
	if err != nil {
		return core.Result{Err: err}
	}
	fences := arch.Fences(x, ar)

	// NO THIN AIR: acyclic(hb), hb = ppo ∪ fences ∪ rfe.
	hb := ar.Get(n)
	hb.CopyFrom(ppo)
	hb.UnionInto(fences)
	hb.UnionInto(x.RFE)
	if !hb.AcyclicScratch(ar.DFS()) {
		failed = append(failed, NoThinAir.String())
	}
	prop := arch.Prop(x, ppo, fences, ar)

	// OBSERVATION: irreflexive(fre ; prop ; hb*).
	hbStar := ar.Get(n)
	hbStar.CopyFrom(hb)
	hbStar.PlusInPlace()
	hbStar.UnionIdentity()
	t1 := ar.Get(n)
	t1.SeqInto(x.FRE, prop)
	t2 := ar.Get(n)
	t2.SeqInto(t1, hbStar)
	if !t2.Irreflexive() {
		failed = append(failed, Observation.String())
	}

	// PROPAGATION: acyclic(co ∪ prop), or the weak irreflexive(prop ; co).
	if opts.WeakPropagation {
		t1.SeqInto(prop, x.CO)
		if !t1.Irreflexive() {
			failed = append(failed, Propagation.String())
		}
	} else {
		t1.CopyFrom(x.CO)
		t1.UnionInto(prop)
		if !t1.AcyclicScratch(ar.DFS()) {
			failed = append(failed, Propagation.String())
		}
	}
	for _, r := range []rel.Rel{t2, t1, hbStar, hb, prop, fences, ppo} {
		ar.Put(r)
	}
	return core.Result{Valid: len(failed) == 0, FailedChecks: failed}
}
