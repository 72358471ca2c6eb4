package bmc

import (
	"fmt"

	"herdcats/internal/cat"
	"herdcats/internal/events"
	"herdcats/internal/rel"
	"herdcats/internal/sat"
)

// compiled returns the cat model the ModelID names, compiled.
func (m ModelID) compiled() (*cat.Compiled, error) {
	var name string
	switch m {
	case SC:
		name = "sc"
	case TSO:
		name = "tso"
	case Power:
		name = "power"
	case ARM:
		name = "arm"
	case PowerCAV:
		name = "power-cav"
	default:
		return nil, fmt.Errorf("bmc: unknown model %d", m)
	}
	cm, err := cat.Builtin(name)
	if err != nil {
		return nil, err
	}
	return cm.Compiled()
}

// gates lowers a compiled cat program onto the instance's circuit
// (cat.Lower): a relation is a matrix of literals over the memory events,
// and a static relation is its projection onto them (DESIGN.md §16).
// Every assertion is guarded by the model's activation literal act.
type gates struct {
	in  *Instance
	act sat.Lit
	// The closures built so far, by the matrix closed: a model names one
	// closure more than once (Power's hb*), and the program hands Star
	// the same matrix each time.
	starIn, starOut []relExpr
}

// Const embeds a concrete relation over skeleton events as a constant
// matrix over the memory events.
func (g *gates) Const(r rel.Rel) relExpr {
	in := g.in
	out := in.c.emptyRel()
	for i, a := range in.memID {
		for j, b := range in.memID {
			if r.Has(a, b) {
				out[i*in.m+j] = in.c.trueLit
			}
		}
	}
	return out
}

func (g *gates) Dyn(d events.Dyn) relExpr {
	in := g.in
	switch d {
	case events.DynRF:
		return in.rfRel
	case events.DynRFE:
		return in.external(in.rfRel)
	case events.DynRFI:
		return in.internal(in.rfRel)
	case events.DynCO:
		return in.coRel
	case events.DynCOE:
		return in.external(in.coRel)
	case events.DynCOI:
		return in.internal(in.coRel)
	case events.DynFR:
		return in.frRel
	case events.DynFRE:
		return in.external(in.frRel)
	case events.DynFRI:
		return in.internal(in.frRel)
	case events.DynCom:
		return in.c.union(in.c.union(in.coRel, in.rfRel), in.frRel)
	case events.DynSW:
		// rf edges from a releasing write to an acquiring read.
		evs := in.asm.X.Events
		return in.mask(in.rfRel, func(i, j int) bool {
			return evs[in.memID[i]].Order.Releases() && evs[in.memID[j]].Order.Acquires()
		})
	}
	panic(fmt.Sprintf("bmc: bad dynamic builtin %#x", d))
}

func (g *gates) Union(a, b relExpr) relExpr { return g.in.c.union(a, b) }
func (g *gates) Inter(a, b relExpr) relExpr { return g.in.c.inter(a, b) }
func (g *gates) Seq(a, b relExpr) relExpr   { return g.in.c.seq(a, b) }

func (g *gates) Compl(a relExpr) relExpr {
	out := g.in.c.emptyRel()
	for i, l := range a {
		out[i] = l.Neg()
	}
	return out
}

func (g *gates) Star(a relExpr) relExpr {
	if len(a) == 0 {
		return a
	}
	for k, b := range g.starIn {
		if &b[0] == &a[0] {
			return g.starOut[k]
		}
	}
	s := g.in.c.star(a)
	g.starIn, g.starOut = append(g.starIn, a), append(g.starOut, s)
	return s
}

// Fresh makes a let rec member: constant true on lo, constant false off
// hi, and a fresh variable in between.
func (g *gates) Fresh(lo, hi rel.Rel) relExpr {
	in := g.in
	out := in.c.emptyRel()
	for i, a := range in.memID {
		for j, b := range in.memID {
			switch {
			case lo.Has(a, b):
				out[i*in.m+j] = in.c.trueLit
			case hi.Has(a, b):
				out[i*in.m+j] = sat.Lit(in.s.NewVar())
			}
		}
	}
	return out
}

func (g *gates) Within(a, b relExpr) {
	for i, l := range a {
		g.in.c.implies(g.act, l, b[i])
	}
}

func (g *gates) Acyclic(a relExpr)     { g.in.c.assertAcyclic(g.act, a) }
func (g *gates) Irreflexive(a relExpr) { g.in.c.assertIrreflexive(g.act, a) }

func (g *gates) Empty(a relExpr) {
	for _, l := range a {
		g.in.c.implies(g.act, l, g.in.c.falseLit)
	}
}

// mask keeps the entries of r at the memory-event pairs keep accepts.
func (in *Instance) mask(r relExpr, keep func(i, j int) bool) relExpr {
	out := in.c.emptyRel()
	for i := 0; i < in.m; i++ {
		for j := 0; j < in.m; j++ {
			if keep(i, j) {
				out[i*in.m+j] = r[i*in.m+j]
			}
		}
	}
	return out
}

// external and internal split a relation into its cross-thread and its
// same-thread pairs, as events.Execution splits rf, co and fr.
func (in *Instance) external(r relExpr) relExpr {
	same := in.asm.X.IntraThread
	return in.mask(r, func(i, j int) bool { return !same.Has(in.memID[i], in.memID[j]) })
}

func (in *Instance) internal(r relExpr) relExpr {
	same := in.asm.X.IntraThread
	return in.mask(r, func(i, j int) bool { return same.Has(in.memID[i], in.memID[j]) })
}
