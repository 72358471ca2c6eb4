package bmc

import (
	"fmt"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/sat"
)

// encodeModel adds the four axiom checks of Fig. 5 for the instance's model.
func (in *Instance) encodeModel() {
	c := in.c
	x := in.asm.X
	static := in.static
	po := static(x.PO)
	poloc := static(x.POLoc)
	com := c.union(c.union(in.coRel, in.rfRel), in.frRel)

	// SC PER LOCATION, common to every model.
	c.assertAcyclic(c.union(poloc, com))

	rfe := in.external(in.rfRel)
	rfi := in.internal(in.rfRel)
	fre := in.external(in.frRel)
	coe := in.external(in.coRel)

	isR := in.isRead
	isW := in.isWrite

	fenceRel := func(k events.FenceKind) relExpr { return static(x.Fences(k)) }

	var ppo, fences, prop relExpr
	switch in.Model {
	case SC:
		ppo = po
		fences = c.emptyRel(in.m)
		prop = c.union(c.union(ppo, in.rfRel), in.frRel)
	case TSO:
		// po \ WR: read-sourced pairs plus write-write pairs.
		ppo = c.union(c.restrict(po, isR, any2), c.restrict(po, isW, isW))
		fences = fenceRel(events.FenceMFence)
		prop = c.union(c.union(c.union(ppo, fences), rfe), in.frRel)
	case C11:
		// Mixed access types: sw = rf masked to releasing-write ->
		// acquiring-read pairs (static orders over the symbolic rf).
		sw := c.emptyRel(in.m)
		for i := 0; i < in.m; i++ {
			for j := 0; j < in.m; j++ {
				if x.Events[in.memID[i]].Order.Releases() && x.Events[in.memID[j]].Order.Acquires() {
					sw[i][j] = in.rfRel[i][j]
				}
			}
		}
		sb := c.restrict(po, func(int) bool { return true }, func(int) bool { return true })
		hbC := c.seq(c.star(c.union(sb, sw)), c.union(sb, sw)) // (sb ∪ sw)+
		c.assertAcyclic(c.union(sb, in.rfRel))                 // NO THIN AIR
		c.assertIrreflexive(c.seq(fre, hbC))                   // OBSERVATION (COWR)
		c.assertIrreflexive(c.seq(hbC, in.coRel))              // HBVSMO
		return
	case Power, PowerCAV:
		ppo, fences = in.powerPPO(poloc, po, rfe, rfi, fre, coe, fenceRel)
		hbStar := c.star(c.union(c.union(ppo, fences), rfe))
		ffence := fenceRel(events.FenceSync)
		propBase := c.seq(c.union(fences, c.seq(rfe, fences)), hbStar)
		comStar := c.star(com)
		strong := c.seq(c.seq(c.seq(comStar, c.star(propBase)), ffence), hbStar)
		prop = c.union(c.restrict(propBase, isW, isW), strong)
	}

	hb := c.union(c.union(ppo, fences), rfe)
	c.assertAcyclic(hb) // NO THIN AIR
	c.assertIrreflexive(c.seq(c.seq(fre, prop), c.star(hb)))
	c.assertAcyclic(c.union(in.coRel, prop))
}

// static embeds a concrete relation over skeleton events as a constant
// matrix over the memory events.
func (in *Instance) static(r interface{ Has(int, int) bool }) relExpr {
	out := in.c.emptyRel(in.m)
	for i := 0; i < in.m; i++ {
		for j := 0; j < in.m; j++ {
			if r.Has(in.memID[i], in.memID[j]) {
				out[i][j] = in.c.trueLit
			}
		}
	}
	return out
}

// powerPPO encodes the preserved-program-order fixpoint of Fig. 25 by
// Kleene unrolling; PowerCAV adds the propagation-model strengthening and
// deeper unrolling (its executions carry one propagation subevent per
// write and thread, which our encoding reflects as a larger circuit).
// A round is a pure function of the previous round's literal matrices
// (the gates are hash-consed), so a round that returns its inputs is a
// fixpoint: every later round would build nothing new, and the
// unrolling stops there with the formula the full bound builds.
func (in *Instance) powerPPO(poloc, po, rfe, rfi, fre, coe relExpr,
	fenceRel func(events.FenceKind) relExpr) (ppo, fences relExpr) {
	c := in.c
	x := in.asm.X
	static := in.static
	isR, isW := in.isRead, in.isWrite

	dp := static(x.Addr.Union(x.Data))
	addr := static(x.Addr)
	ctrl := static(x.Ctrl)
	ctrlCfence := c.emptyRel(in.m)
	if cf, ok := x.CtrlCfence[events.FenceIsync]; ok {
		ctrlCfence = static(cf)
	}
	if cf, ok := x.CtrlCfence[events.FenceISB]; ok {
		ctrlCfence = c.union(ctrlCfence, static(cf))
	}

	rdw := c.inter(poloc, c.seq(fre, rfe))
	detour := c.inter(poloc, c.seq(coe, rfe))

	ii0 := c.union(c.union(dp, rdw), rfi)
	if in.Model == PowerCAV {
		// Propagation-model strengthening (see package multi): a read that
		// misses a fence-ordered write is satisfied before a po-later read
		// of the fence's target.
		lw := fenceRel(events.FenceLwsync)
		lwWW := c.restrict(lw, isW, isW)
		sync := fenceRel(events.FenceSync)
		eieio := c.restrict(fenceRel(events.FenceEieio), isW, isW)
		wwProp := c.restrict(c.union(c.union(lwWW, sync), eieio), isW, isW)
		bigRdw := c.inter(c.restrict(po, isR, isR), c.seq(c.seq(fre, wwProp), rfe))
		ii0 = c.union(ii0, bigRdw)
	}
	ci0 := c.union(ctrlCfence, detour)
	cc0 := c.union(c.union(dp, poloc), c.union(ctrl, c.seq(addr, po)))

	ii, ic, ci, cc := ii0, c.emptyRel(in.m), ci0, cc0
	iters := 2*bits(in.m) + 4
	if in.Model == PowerCAV {
		iters += bits(in.m) + 2
	}
	for k := 0; k < iters; k++ {
		nii := c.union(c.union(ii0, ci), c.union(c.seq(ic, ci), c.seq(ii, ii)))
		nic := c.union(c.union(ii, cc), c.union(c.seq(ic, cc), c.seq(ii, ic)))
		nci := c.union(ci0, c.union(c.seq(ci, ii), c.seq(cc, ci)))
		ncc := c.union(c.union(cc0, ci), c.union(c.seq(ci, ic), c.seq(cc, cc)))
		if sameRel(nii, ii) && sameRel(nic, ic) && sameRel(nci, ci) && sameRel(ncc, cc) {
			break
		}
		ii, ic, ci, cc = nii, nic, nci, ncc
	}
	ppo = c.union(c.restrict(ii, isR, isR), c.restrict(ic, isR, isW))

	lw := fenceRel(events.FenceLwsync)
	lwNoWR := c.union(c.restrict(lw, isR, any2), c.restrict(lw, isW, isW))
	eieio := c.restrict(fenceRel(events.FenceEieio), isW, isW)
	fences = c.union(c.union(lwNoWR, eieio), fenceRel(events.FenceSync))
	return ppo, fences
}

func any2(int) bool { return true }

// bits returns ⌈log2(n+1)⌉, the unrolling depth unit.
func bits(n int) int {
	b := 0
	for v := n; v > 0; v >>= 1 {
		b++
	}
	return b
}

// --- Final condition ---------------------------------------------------

// assertCondition encodes the test's condition over the symbolic final
// state and asserts it (Exists reachability; callers wanting the NotExists
// verdict interpret UNSAT accordingly).
func (in *Instance) assertCondition() error {
	cond := in.prog.Test.Cond
	if cond == nil {
		return nil
	}
	l, err := in.condLit(cond)
	if err != nil {
		return err
	}
	in.s.AddClause(l)
	return nil
}

func (in *Instance) condLit(cond litmus.Cond) (sat.Lit, error) {
	c := in.c
	switch cond := cond.(type) {
	case *litmus.Bool:
		return c.constOf(cond.V), nil
	case *litmus.Not:
		l, err := in.condLit(cond.X)
		if err != nil {
			return 0, err
		}
		return l.Neg(), nil
	case *litmus.And:
		l, err := in.condLit(cond.L)
		if err != nil {
			return 0, err
		}
		r, err := in.condLit(cond.R)
		if err != nil {
			return 0, err
		}
		return c.and2(l, r), nil
	case *litmus.Or:
		l, err := in.condLit(cond.L)
		if err != nil {
			return 0, err
		}
		r, err := in.condLit(cond.R)
		if err != nil {
			return 0, err
		}
		return c.or(l, r), nil
	case *litmus.AtomReg:
		return in.regAtom(cond)
	case *litmus.AtomMem:
		return in.memAtom(cond)
	}
	return 0, fmt.Errorf("bmc: unsupported condition %T", cond)
}

// regAtom: true iff the chosen trace of the thread ends with the register
// holding the value.
func (in *Instance) regAtom(a *litmus.AtomReg) (sat.Lit, error) {
	if a.Key.Tid < 0 || a.Key.Tid >= len(in.traces) {
		return in.c.falseLit, nil
	}
	var terms []sat.Lit
	for i, tr := range in.traces[a.Key.Tid] {
		if v, ok := tr.FinalRegs[a.Key.Reg]; ok {
			if in.prog.Decode(v) == a.Val {
				terms = append(terms, in.sel[a.Key.Tid][i])
			}
		} else if (a.Val == litmus.Value{}) {
			// Unset registers read as zero.
			terms = append(terms, in.sel[a.Key.Tid][i])
		}
	}
	return in.c.or(terms...), nil
}

// memAtom: true iff the co-maximal write to the location has the value.
func (in *Instance) memAtom(a *litmus.AtomMem) (sat.Lit, error) {
	c := in.c
	evs := in.asm.X.Events
	var terms []sat.Lit
	for w := 0; w < in.m; w++ {
		id := in.memID[w]
		if evs[id].Kind != events.MemWrite || evs[id].Loc != a.Loc {
			continue
		}
		// comax: every other same-location write is co-before w.
		comax := c.trueLit
		for w2 := 0; w2 < in.m; w2++ {
			if l, ok := in.coLitOK(w2, w); ok {
				comax = c.and2(comax, l)
			}
		}
		// value match, per trace of the writing thread.
		var valOK sat.Lit
		if sel := in.selOf(id); sel == nil {
			valOK = c.constOf(in.prog.Decode(in.eventVal(id, 0)) == a.Val)
		} else {
			var vts []sat.Lit
			for i := range sel {
				if in.prog.Decode(in.eventVal(id, i)) == a.Val {
					vts = append(vts, sel[i])
				}
			}
			valOK = c.or(vts...)
		}
		terms = append(terms, c.and2(comax, valOK))
	}
	return c.or(terms...), nil
}
