package cat

// This file lowers a compiled program onto a symbolic relation algebra,
// such as the SAT circuit of internal/bmc: the program runs once, over
// relations whose value depends on the candidate's rf and co, and its
// checks become assertions (DESIGN.md §16).

import (
	"fmt"
	"math/bits"
	"slices"

	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// Gates is a symbolic relation algebra over one skeleton's events that
// Lower runs a compiled program on. An R stands for a relation that may
// depend on the candidate's rf and co; R values are never mutated.
type Gates[R any] interface {
	// Const is a relation the skeleton fixes, such as a static slot.
	Const(r rel.Rel) R
	// Dyn is a dynamic builtin: rf, co, fr, their splits, com or sw.
	Dyn(d events.Dyn) R
	Union(a, b R) R
	Inter(a, b R) R
	Compl(a R) R
	Seq(a, b R) R
	// Star is the reflexive-transitive closure.
	Star(a R) R
	// Fresh is an unknown relation r with lo ⊆ r ⊆ hi: a let rec member.
	Fresh(lo, hi rel.Rel) R
	// Within asserts a ⊆ b.
	Within(a, b R)
	Acyclic(a R)
	Irreflexive(a R)
	Empty(a R)
}

// Lower runs the program once over g for the derived skeleton x, and
// asserts its dynamic checks there. It reports whether the
// static checks hold on x.
//
// A let rec group is not unrolled. Each member becomes g.Fresh, bounded by
// the group's values at the least and the greatest rf and co the skeleton
// allows (the specialiser's bound run, without its same-value filter), and
// one round of the body, every member read as its fresh value, is asserted
// within them. The least fixpoint of a monotone body is its least
// pre-fixpoint, and every check is antitone in the group, so a check holds
// for some pre-fixpoint iff it holds for the least fixpoint. Lower returns
// an error for a program outside that argument (lowerable).
func Lower[R any](c *Compiled, x *events.Skeleton, g Gates[R]) (staticOK bool, err error) {
	if err := c.lowerable(); err != nil {
		return false, err
	}
	ev := c.newEvaluator()
	defer ev.Release()
	return lower(ev.e, x, g)
}

// lower is Lower over the evaluator storage ev, which it leaves bound.
func lower[R any](ev *evaluator, x *events.Skeleton, g Gates[R]) (staticOK bool, err error) {
	c := ev.c
	defer func() {
		if r := recover(); r != nil { // a divergent static let rec
			staticOK, err = false, fmt.Errorf("cat: model %q evaluation failed: %v", c.m.name, r)
		}
	}()
	ev.bind(x)
	var lo, hi []rel.Rel
	if len(c.fixGroups) > 0 {
		if ev.sp == nil {
			ev.sp = &residual{}
		}
		ev.sp.record = false
		if !ev.boundRun(false, c.fixGroups[len(c.fixGroups)-1].end+1) {
			return false, fmt.Errorf("cat: model %q: let rec bounds did not converge", c.m.name)
		}
		lo, hi = ev.sp.lo, ev.sp.hi
	}

	regs := make([]R, c.nRegs)
	slots := make([]R, c.nSlots)
	haveSlot := make([]bool, c.nSlots)
	var dyn [16]R // by bit position of the events.Dyn
	var haveDyn events.Dyn
	fetch := func(o operand) R {
		switch o.kind {
		case oReg:
			return regs[o.idx]
		case oStatic:
			if !haveSlot[o.idx] {
				slots[o.idx], haveSlot[o.idx] = g.Const(ev.static[o.idx]), true
			}
			return slots[o.idx]
		}
		d := events.Dyn(o.idx)
		k := bits.TrailingZeros16(uint16(d))
		if haveDyn&d == 0 {
			dyn[k], haveDyn = g.Dyn(d), haveDyn|d
		}
		return dyn[k]
	}

	var grp *fixGroup // the group whose body pc is in, if any
	var round []R     // its members' values after one round
	for pc, gi := 0, 0; pc < len(c.prog); pc++ {
		in := &c.prog[pc]
		if gi < len(c.fixGroups) && pc == c.fixGroups[gi].start {
			grp, gi = &c.fixGroups[gi], gi+1
			round = slices.Grow(round[:0], len(grp.regs))[:len(grp.regs)]
			for _, r := range grp.regs {
				regs[r] = g.Fresh(lo[r], hi[r])
			}
			pc += len(grp.regs) // past the cZeros, onto the cSnapshot
			continue
		}
		switch in.op { // cZero only starts a group
		case cCopy:
			if k := memberOf(grp, in.dst); k >= 0 {
				round[k] = fetch(in.a)
			} else {
				regs[in.dst] = fetch(in.a)
			}
		case cUnion:
			regs[in.dst] = g.Union(regs[in.dst], fetch(in.a))
		case cInter:
			regs[in.dst] = g.Inter(regs[in.dst], fetch(in.a))
		case cDiff:
			regs[in.dst] = g.Inter(regs[in.dst], g.Compl(fetch(in.a)))
		case cSeq:
			regs[in.dst] = g.Seq(fetch(in.a), fetch(in.b))
		case cPlus:
			if next := pc + 1; next < len(c.prog) && c.prog[next].op == cUnionID && c.prog[next].dst == in.dst {
				regs[in.dst] = g.Star(regs[in.dst])
				pc = next
			} else {
				regs[in.dst] = g.Seq(g.Star(regs[in.dst]), regs[in.dst])
			}
		case cUnionID:
			regs[in.dst] = g.Union(regs[in.dst], g.Const(rel.Identity(x.N())))
		case cCompl:
			regs[in.dst] = g.Compl(regs[in.dst])
		case cRestrict:
			dirs := rel.Cross(ev.dirSet(x, byte(in.aux>>8)), ev.dirSet(x, byte(in.aux)))
			regs[in.dst] = g.Inter(regs[in.dst], g.Const(dirs))
		case cLoop:
			for k, r := range grp.regs {
				g.Within(round[k], regs[r])
			}
			grp = nil
		case cCheck:
			a := fetch(in.a)
			switch c.checks[in.aux].kind {
			case checkAcyclic:
				g.Acyclic(a)
			case checkIrreflexive:
				g.Irreflexive(a)
			case checkEmpty:
				g.Empty(a)
			}
		}
	}
	for i, ck := range c.checks {
		if ck.static && !ev.ok[i] {
			return false, nil
		}
	}
	return true, nil
}

// memberOf is the index of register r among grp's members, or -1.
func memberOf(grp *fixGroup, r int) int {
	if grp == nil {
		return -1
	}
	return slices.Index(grp.regs, r)
}

// Polarity of a register's value in the let rec members it depends on:
// grows with them (monotone), shrinks with them (antitone), or both.
const (
	monotone uint8 = 1 << iota
	antitone
)

// flip swaps the two polarities: the value under ~ or right of \.
func flip(p uint8) uint8 { return p&monotone<<1 | p&antitone>>1 }

// lowerable reports the constructs Lower's pre-fixpoint argument does not
// cover: a dynamic reflexive check, which is monotone, not antitone; a
// let rec body that depends on a let rec member through ~ or the right
// of \, which need not be monotone; and a check that does.
func (c *Compiled) lowerable() error {
	pol := make([]uint8, c.nRegs)
	of := func(o operand) uint8 {
		if o.kind == oReg {
			return pol[o.idx]
		}
		return 0
	}
	var grp *fixGroup
	for pc, gi := 0, 0; pc < len(c.prog); pc++ {
		in := &c.prog[pc]
		if gi < len(c.fixGroups) && pc == c.fixGroups[gi].start {
			grp, gi = &c.fixGroups[gi], gi+1
			for _, r := range grp.regs {
				pol[r] = monotone
			}
			pc += len(grp.regs)
			continue
		}
		switch in.op {
		case cZero:
			pol[in.dst] = 0
		case cCopy:
			if memberOf(grp, in.dst) < 0 {
				pol[in.dst] = of(in.a)
			} else if of(in.a)&antitone != 0 {
				return fmt.Errorf("cat: model %q: a let rec body depends on a let rec through ~ or the right of \\", c.m.name)
			} else {
				pol[in.dst] |= of(in.a)
			}
		case cUnion, cInter:
			pol[in.dst] |= of(in.a)
		case cDiff:
			pol[in.dst] |= flip(of(in.a))
		case cSeq:
			pol[in.dst] = of(in.a) | of(in.b)
		case cCompl:
			pol[in.dst] = flip(pol[in.dst])
		case cLoop:
			grp = nil
		case cCheck:
			ck := c.checks[in.aux]
			if ck.kind == checkReflexive {
				return fmt.Errorf("cat: model %q: check %s is a dynamic reflexive check", c.m.name, ck.name)
			}
			if of(in.a)&antitone != 0 {
				return fmt.Errorf("cat: model %q: check %s reaches a let rec through ~ or the right of \\", c.m.name, ck.name)
			}
		}
	}
	return nil
}
