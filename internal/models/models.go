// Package models is the hand-written model zoo: the generic axiomatic
// framework of Fig. 5 (Architecture, Options, Check) and its instances for
// the architectures studied in the paper: Sequential Consistency, TSO,
// C++ restricted to release-acquire atomics (Fig. 21), Power (Fig. 17, 18
// and 25) and the three ARM variants of Tab. VII.
//
// The builtin cat files decide every production verdict; the zoo is the
// tests' oracle. Outside tests only crosscheck (its native-vs-cat pairs)
// and multi (the Power ppo seeds) import it.
package models

import (
	"fmt"

	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// Model bundles an architecture with the axiom options it is checked under
// (e.g. "ARM llh" = proposed-ARM ppo + load-load hazards allowed).
type Model struct {
	Arch Architecture
	Opts Options
}

// Name returns the architecture's name.
func (m Model) Name() string { return m.Arch.Name() }

// Check validates a candidate execution against the model.
func (m Model) Check(x *events.Execution) core.Result {
	return Check(m.Arch, x, m.Opts, nil)
}

// NewEvaluator implements core.EvaluatorProvider: the returned checker
// reuses one arena of pooled relation buffers across candidates, so the
// steady-state axiom check (including the Power/ARM ppo fixpoint) runs
// without allocating bitsets. One evaluator serves one goroutine;
// sim.Simulate requests one per search worker.
func (m Model) NewEvaluator() core.Checker {
	return evaluator{Model: m, ar: rel.NewArena()}
}

// evaluator is a Model bound to a private arena.
type evaluator struct {
	Model
	ar *rel.Arena
}

func (e evaluator) Check(x *events.Execution) core.Result {
	return Check(e.Arch, x, e.Opts, e.ar)
}

// The standard model zoo.
var (
	// SC is Lamport's Sequential Consistency (Fig. 21, Lemma 4.1).
	SC = Model{Arch: scArch{}}
	// TSO is Sparc/x86 Total Store Order (Fig. 21, Lemma 4.1).
	TSO = Model{Arch: tsoArch{}}
	// CppRA is C++ restricted to release-acquire atomics, with the paper's
	// PROPAGATION weakening to irreflexive(prop ; co) (Sec. 4.8).
	CppRA = Model{Arch: cppRAArch{}, Opts: Options{WeakPropagation: true}}
	// Power is the paper's Power model (Fig. 5 + 17 + 18 + 25).
	Power = Model{Arch: powerArch{name: "Power", cfence: events.FenceIsync}}
	// PowerARM instantiates the Power model with ARM fences (first column
	// of Tab. VII); it is invalidated by ARM hardware.
	PowerARM = Model{Arch: powerArch{name: "Power-ARM", cfence: events.FenceISB, armFences: true}}
	// ARM is the paper's proposed ARM model (Tab. VII): cc0 loses po-loc
	// to admit the early-commit behaviours of Fig. 32/33.
	ARM = Model{Arch: powerArch{name: "ARM", cfence: events.FenceISB, armFences: true, earlyCommit: true}}
	// ARMllh is ARM plus load-load hazards allowed in SC PER LOCATION,
	// used to test hardware suffering from the acknowledged coRR bug.
	ARMllh = Model{
		Arch: powerArch{name: "ARM llh", cfence: events.FenceISB, armFences: true, earlyCommit: true},
		Opts: Options{AllowLoadLoadHazard: true},
	}
	// PowerStatic and ARMStatic drop the dynamic rdw and detour ingredients
	// from the preserved program order — the weaker, "more stand-alone" ppo
	// the paper weighs at the end of Sec. 8.2; the nodetour ablation
	// measures how few behaviours this actually frees.
	PowerStatic = Model{Arch: powerArch{name: "Power nodetour", cfence: events.FenceIsync, static: true}}
	ARMStatic   = Model{Arch: powerArch{name: "ARM nodetour", cfence: events.FenceISB, armFences: true, earlyCommit: true, static: true}}
)

// All lists the model zoo in a stable order.
func All() []Model {
	return []Model{SC, TSO, CppRA, Power, PowerARM, ARM, ARMllh}
}

// ByName returns the model with the given name, or ok=false.
func ByName(name string) (Model, bool) {
	for _, m := range All() {
		if m.Name() == name {
			return m, true
		}
	}
	return Model{}, false
}

// ---------------------------------------------------------------------------
// SC (Fig. 21): ppo = po, fences = ∅, prop = ppo ∪ fences ∪ rf ∪ fr.

type scArch struct{}

func (scArch) Name() string { return "SC" }

func (scArch) PPO(x *events.Execution, ar *rel.Arena) (rel.Rel, error) { return poMM(x, ar), nil }

func (scArch) Fences(x *events.Execution, ar *rel.Arena) rel.Rel { return ar.Get(x.N()) }

func (scArch) Prop(x *events.Execution, ppo, _ rel.Rel, ar *rel.Arena) rel.Rel {
	prop := ar.Get(x.N())
	prop.CopyFrom(ppo)
	prop.UnionInto(x.MemRF())
	prop.UnionInto(x.FR)
	return prop
}

// ---------------------------------------------------------------------------
// TSO (Fig. 21): ppo = po \ WR, ffence = mfence,
// prop = ppo ∪ fences ∪ rfe ∪ fr.

type tsoArch struct{}

func (tsoArch) Name() string { return "TSO" }

func (tsoArch) PPO(x *events.Execution, ar *rel.Arena) (rel.Rel, error) {
	po := poMM(x, ar)
	wr := ar.Get(x.N())
	wr.CopyFrom(po)
	wr.RestrictInPlace(x.W, x.R)
	po.DiffInto(wr)
	ar.Put(wr)
	return po, nil
}

func (tsoArch) Fences(x *events.Execution, ar *rel.Arena) rel.Rel {
	f := ar.Get(x.N())
	copyFence(f, x, events.FenceMFence)
	return f
}

func (tsoArch) Prop(x *events.Execution, ppo, fences rel.Rel, ar *rel.Arena) rel.Rel {
	prop := ar.Get(x.N())
	prop.CopyFrom(ppo)
	prop.UnionInto(fences)
	prop.UnionInto(x.RFE)
	prop.UnionInto(x.FR)
	return prop
}

// poMM returns po restricted to memory events, drawn from ar.
func poMM(x *events.Execution, ar *rel.Arena) rel.Rel {
	po := ar.Get(x.N())
	po.CopyFrom(x.PO)
	po.RestrictInPlace(x.M, x.M)
	return po
}

// copyFence overwrites dst with the execution's fence relation of the given
// kind (empty if the kind is unused), without allocating the empty relation
// x.Fences would hand back for a missing kind.
func copyFence(dst rel.Rel, x *events.Execution, kind events.FenceKind) {
	if f, ok := x.FenceRel[kind]; ok {
		dst.CopyFrom(f)
	} else {
		dst.Clear()
	}
}

// ---------------------------------------------------------------------------
// C++ R-A (Fig. 21): ppo = sb (program order), fences = ∅, prop = hb⁺ with
// hb = sb ∪ rf. Checked with the WeakPropagation option.

type cppRAArch struct{ scArch }

func (cppRAArch) Name() string { return "C++ R-A" }

func (cppRAArch) Prop(x *events.Execution, ppo, _ rel.Rel, ar *rel.Arena) rel.Rel {
	prop := ar.Get(x.N())
	prop.CopyFrom(ppo)
	prop.UnionInto(x.MemRF())
	prop.PlusInPlace()
	return prop
}

// ---------------------------------------------------------------------------
// Power (Fig. 17 + 18 + 25) and ARM (Tab. VII).

// powerArch is the Power family: Power, the ARM variants of Tab. VII and
// their nodetour ablations differ only in these parameters.
type powerArch struct {
	name string
	// cfence is the control fence: isync on Power, isb on ARM.
	cfence events.FenceKind
	// earlyCommit drops po-loc from cc0, the proposed ARM model.
	earlyCommit bool
	// static drops rdw and detour from the ppo (the Sec. 8.2 ablation).
	static bool
	// armFences selects ARM's fences (dmb, dsb and their .st variants)
	// over Power's (sync, lwsync and eieio).
	armFences bool
}

func (a powerArch) Name() string { return a.name }

// PPO computes the preserved program order of Fig. 25: the fixpoint of
// PPOFixpoint over the architecture's seeds, then
// ppo = (ii ∩ RR) ∪ (ic ∩ RW).
func (a powerArch) PPO(x *events.Execution, ar *rel.Arena) (rel.Rel, error) {
	ii0, ci0, cc0 := a.seeds(x, ar)
	ii, ic, err := PPOFixpoint(ii0, ci0, cc0, ar)
	for _, r := range []rel.Rel{ii0, ci0, cc0} {
		ar.Put(r)
	}
	if err != nil {
		return rel.Rel{}, err
	}
	ii.RestrictInPlace(x.R, x.R)
	ic.RestrictInPlace(x.R, x.W)
	ii.UnionInto(ic)
	ar.Put(ic)
	return ii, nil
}

// PowerSeeds returns the seeds of Power's Fig. 25 fixpoint over x, fresh
// relations drawn from ar (see powerArch.seeds). Package multi lifts them
// into its multi-event universe.
func PowerSeeds(x *events.Execution, ar *rel.Arena) (ii0, ci0, cc0 rel.Rel) {
	return Power.Arch.(powerArch).seeds(x, ar)
}

// seeds builds the seeds of the Fig. 25 fixpoint, fresh relations drawn
// from ar:
//
//	ii0 = dp ∪ rdw ∪ rfi        ci0 = ctrl+cfence ∪ detour
//	cc0 = dp ∪ po-loc ∪ ctrl ∪ (addr ; po)
//
// ARM drops po-loc from cc0, and the nodetour ablations drop rdw and
// detour.
func (a powerArch) seeds(x *events.Execution, ar *rel.Arena) (ii0, ci0, cc0 rel.Rel) {
	n := x.N()
	dp := ar.Get(n)
	dp.CopyFrom(x.Addr)
	dp.UnionInto(x.Data)
	tmp := ar.Get(n)
	rdw := ar.Get(n)
	detour := ar.Get(n)
	if !a.static {
		tmp.SeqInto(x.FRE, x.RFE)
		rdw.CopyFrom(x.POLoc)
		rdw.InterInto(tmp)
		tmp.SeqInto(x.COE, x.RFE)
		detour.CopyFrom(x.POLoc)
		detour.InterInto(tmp)
	}

	ii0 = ar.Get(n)
	ii0.CopyFrom(dp)
	ii0.UnionInto(rdw)
	ii0.UnionInto(x.RFI)
	ci0 = ar.Get(n)
	if ctrlCfence, ok := x.CtrlCfence[a.cfence]; ok && ctrlCfence.N() == n {
		ci0.CopyFrom(ctrlCfence)
	}
	ci0.UnionInto(detour)
	po := poMM(x, ar)
	tmp.SeqInto(x.Addr, po)
	ar.Put(po)
	cc0 = ar.Get(n)
	cc0.CopyFrom(dp)
	cc0.UnionInto(x.Ctrl)
	cc0.UnionInto(tmp)
	if !a.earlyCommit {
		cc0.UnionInto(x.POLoc)
	}
	for _, r := range []rel.Rel{dp, tmp, rdw, detour} {
		ar.Put(r)
	}
	return ii0, ci0, cc0
}

// PPOFixpoint iterates the equations of Fig. 25 over init/commit
// subevent orderings from the seeds ii0, ci0 and cc0 (ic0 is empty) to
// their least fixpoint:
//
//	ii = ii0 ∪ ci ∪ (ic ; ci) ∪ (ii ; ii)
//	ic = ii ∪ cc ∪ (ic ; cc) ∪ (ii ; ic)
//	ci = ci0 ∪ (ci ; ii) ∪ (cc ; ci)
//	cc = cc0 ∪ ci ∪ (ci ; ic) ∪ (cc ; cc)
//
// The seeds are read-only; ii and ic are fresh relations the caller owns.
// Two register files swap each round, so with a warm arena the loop
// allocates nothing however many rounds it takes. Each round but the last
// grows the four n×n relations by at least one pair, so a run past
// 4n²+1 rounds is not the monotone iteration: a register that aliases a
// seed, say. It stops there with an error rather than spinning.
func PPOFixpoint(ii0, ci0, cc0 rel.Rel, ar *rel.Arena) (ii, ic rel.Rel, err error) {
	n := ii0.N()
	ii = ar.Get(n)
	ii.CopyFrom(ii0)
	ic = ar.Get(n)
	ci := ar.Get(n)
	ci.CopyFrom(ci0)
	cc := ar.Get(n)
	cc.CopyFrom(cc0)
	tmp := ar.Get(n)
	nii, nic, nci, ncc := ar.Get(n), ar.Get(n), ar.Get(n), ar.Get(n)
	rounds := 4*n*n + 1
	for range rounds {
		nii.CopyFrom(ii0)
		nii.UnionInto(ci)
		tmp.SeqInto(ic, ci)
		nii.UnionInto(tmp)
		tmp.SeqInto(ii, ii)
		nii.UnionInto(tmp)

		nic.CopyFrom(ii)
		nic.UnionInto(cc)
		tmp.SeqInto(ic, cc)
		nic.UnionInto(tmp)
		tmp.SeqInto(ii, ic)
		nic.UnionInto(tmp)

		nci.CopyFrom(ci0)
		tmp.SeqInto(ci, ii)
		nci.UnionInto(tmp)
		tmp.SeqInto(cc, ci)
		nci.UnionInto(tmp)

		ncc.CopyFrom(cc0)
		ncc.UnionInto(ci)
		tmp.SeqInto(ci, ic)
		ncc.UnionInto(tmp)
		tmp.SeqInto(cc, cc)
		ncc.UnionInto(tmp)

		if nii.Equal(ii) && nic.Equal(ic) && nci.Equal(ci) && ncc.Equal(cc) {
			for _, r := range []rel.Rel{ci, cc, tmp, nii, nic, nci, ncc} {
				ar.Put(r)
			}
			return ii, ic, nil
		}
		ii, nii = nii, ii
		ic, nic = nic, ic
		ci, nci = nci, ci
		cc, ncc = ncc, cc
	}
	for _, r := range []rel.Rel{ii, ic, ci, cc, tmp, nii, nic, nci, ncc} {
		ar.Put(r)
	}
	return rel.Rel{}, rel.Rel{}, fmt.Errorf("models: ppo fixpoint over %d events did not converge in %d rounds", n, rounds)
}

// ffence writes the full fence into dst: sync on Power; on ARM dmb ∪ dsb
// plus the .st variants restricted to write-write pairs (Sec. 4.7: .st
// fences are taken to be their unsuffixed counterparts limited to WW).
// tmp is scratch of the same universe.
func (a powerArch) ffence(dst, tmp rel.Rel, x *events.Execution) {
	if !a.armFences {
		copyFence(dst, x, events.FenceSync)
		return
	}
	copyFence(dst, x, events.FenceDMB)
	if f, ok := x.FenceRel[events.FenceDSB]; ok {
		dst.UnionInto(f)
	}
	copyFence(tmp, x, events.FenceDMBST)
	if f, ok := x.FenceRel[events.FenceDSBST]; ok {
		tmp.UnionInto(f)
	}
	tmp.RestrictInPlace(x.W, x.W)
	dst.UnionInto(tmp)
}

// Fences is the full fence, plus on Power the lightweight one: lwsync \ WR
// and eieio restricted to write-write pairs (Sec. 4.7: eieio is a
// lightweight barrier maintaining only WW pairs; ARM has none).
func (a powerArch) Fences(x *events.Execution, ar *rel.Arena) rel.Rel {
	n := x.N()
	f := ar.Get(n)
	tmp := ar.Get(n)
	a.ffence(f, tmp, x)
	if !a.armFences {
		lw := ar.Get(n)
		copyFence(lw, x, events.FenceLwsync)
		tmp.CopyFrom(lw)
		tmp.RestrictInPlace(x.W, x.R)
		lw.DiffInto(tmp)
		f.UnionInto(lw)
		copyFence(tmp, x, events.FenceEieio)
		tmp.RestrictInPlace(x.W, x.W)
		f.UnionInto(tmp)
		ar.Put(lw)
	}
	ar.Put(tmp)
	return f
}

// Prop computes the propagation order of Fig. 18:
//
//	prop-base = (fences ∪ (rfe ; fences)) ; hb*
//	prop      = (prop-base ∩ WW) ∪ (com* ; prop-base* ; ffence ; hb*)
func (a powerArch) Prop(x *events.Execution, ppo, fences rel.Rel, ar *rel.Arena) rel.Rel {
	n := x.N()
	hbStar := ar.Get(n)
	hbStar.CopyFrom(ppo)
	hbStar.UnionInto(fences)
	hbStar.UnionInto(x.RFE)
	hbStar.PlusInPlace()
	hbStar.UnionIdentity()

	t := ar.Get(n)
	t.SeqInto(x.RFE, fences) // rfe ; fences
	t.UnionInto(fences)      // fences ∪ (rfe ; fences)
	propBase := ar.Get(n)
	propBase.SeqInto(t, hbStar)

	comStar := ar.Get(n)
	comStar.CopyFrom(x.Com)
	comStar.PlusInPlace()
	comStar.UnionIdentity()
	pbStar := ar.Get(n)
	pbStar.CopyFrom(propBase)
	pbStar.PlusInPlace()
	pbStar.UnionIdentity()

	ff := ar.Get(n)
	u := ar.Get(n)
	a.ffence(ff, u, x)
	t.SeqInto(comStar, pbStar)
	u.SeqInto(t, ff)
	t.SeqInto(u, hbStar) // strong

	out := propBase
	out.RestrictInPlace(x.W, x.W)
	out.UnionInto(t)
	for _, r := range []rel.Rel{hbStar, t, comStar, pbStar, ff, u} {
		ar.Put(r)
	}
	return out
}
