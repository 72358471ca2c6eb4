package models

import (
	"herdcats/internal/core"
	"herdcats/internal/events"
)

// C11Model is the mixed-access-type extension announced in Sec. 4.9:
// where the paper's C++ R-A instance (Fig. 21) assumes every write is a
// release and every read an acquire, this model reads each access's C11
// memory order off the event (package isa's C dialect) and synchronises
// only across release→acquire read-from pairs:
//
//	hbC = (sb ∪ sw)+        sw = rf ∩ (releasing × acquiring)
//
//	SC PER LOCATION  acyclic(po-loc ∪ com)      (C11 coherence, mo-based)
//	NO THIN AIR      acyclic(sb ∪ rf)           (the paper's prescription;
//	                                             the C11 standard itself
//	                                             admits lb for relaxed)
//	OBSERVATION      irreflexive(fre ; hbC)     (COWR of Batty et al.)
//	PROPAGATION      irreflexive(hbC ; co)      (HBVSMO)
//
// seq_cst accesses synchronise like acq_rel; the total S order of C11's
// seq_cst fragment is not modelled (a documented simplification — the
// paper's C++ study is likewise restricted to the R-A fragment).
//
// With every access annotated release/acquire, sw = rf and the model
// coincides with CppRA; TestC11DegeneratesToCppRA asserts this.
type C11Model struct{}

// C11 is the mixed-access C11 checker.
var C11 = C11Model{}

// Name implements sim.Checker.
func (C11Model) Name() string { return "C11" }

// Check implements sim.Checker.
func (C11Model) Check(x *events.Execution) core.Result {
	var failed []string

	if !x.POLoc.Union(x.Com).Acyclic() {
		failed = append(failed, SCPerLocation.String())
	}

	sb := x.PO.Restrict(x.M, x.M)
	if !sb.Union(x.MemRF()).Acyclic() {
		failed = append(failed, NoThinAir.String())
	}

	hbC := sb.Union(x.SW).Plus()
	if !x.FRE.Seq(hbC).Irreflexive() {
		failed = append(failed, Observation.String())
	}
	if !hbC.Seq(x.CO).Irreflexive() {
		failed = append(failed, Propagation.String())
	}

	return core.Result{Valid: len(failed) == 0, FailedChecks: failed}
}
