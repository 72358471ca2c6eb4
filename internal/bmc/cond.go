package bmc

import (
	"fmt"

	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/sat"
)

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
