package cat

import (
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// ProductionSpecialiseAfter is the threshold evaluators run at.
const ProductionSpecialiseAfter = specialiseAfter

// SpecialiseAfter sets how many candidates of a skeleton evaluators check
// with the generic program before specialising it (0: from the first), and
// returns the function restoring the production threshold.
func SpecialiseAfter(n int) (restore func()) {
	specGate = n
	return func() { specGate = specialiseAfter }
}

// SkeletonBounds returns the bounds on rf and co that specialisation
// derives from a skeleton's events.
func SkeletonBounds(base *events.Skeleton) (rfLo, rfHi, coLo, coHi rel.Rel) {
	var sp residual
	n := base.N()
	sp.rfLo, sp.rfHi, sp.coLo, sp.coHi = rel.New(n), rel.New(n), rel.New(n), rel.New(n)
	sp.bounds(base, true, events.DynAll)
	return sp.rfLo, sp.rfHi, sp.coLo, sp.coHi
}

// ProgramSizes returns the length of the generic dynamic program behind a
// compiled evaluator and of the residual program it runs for its bound
// skeleton (-1 when it has not specialised the skeleton).
func ProgramSizes(ev core.Checker) (generic, residual int) {
	e := ev.(*Evaluator).live()
	if e.sp == nil || !e.sp.on {
		return len(e.c.prog), -1
	}
	return len(e.c.prog), len(e.sp.prog)
}

// Demands returns the dynamic builtins a compiled evaluator derives before
// a check: its generic program's, and its residual program's plus the
// covers guard's (0 when it has not specialised its bound skeleton).
func Demands(ev core.Checker) (generic, residual events.Dyn) {
	e := ev.(*Evaluator).live()
	if e.sp == nil || !e.sp.on {
		return e.c.demand, 0
	}
	return e.c.demand, e.sp.demand
}
