// Fence placement: Sec. 4.7's recipe made executable. "Placing fences
// essentially amounts to counting the number of communications involved in
// the behaviour we want to forbid":
//
//   - rf-only cycles (or one fr): a lightweight fence on the writer and a
//     dependency on the readers suffice (OBSERVATION / prop-base);
//   - co+rf cycles: lightweight fences everywhere (PROPAGATION / prop-base);
//   - two frs, or fr mixed with co: full fences everywhere (the
//     com*;ffence part of prop).
//
// This example sweeps each classic pattern over fence strengths and prints
// which choice first forbids it under the Power model.
//
//	go run ./examples/fenceplacement
package main

import (
	"context"
	"fmt"
	"log"

	"herdcats/internal/cat"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

type strength int

const (
	none strength = iota
	deps
	lightweight
	full
)

func (s strength) String() string {
	return [...]string{"no fences", "dependencies", "lwsync", "sync"}[s]
}

// pattern describes a classic shape as a cycle builder parameterised by
// the in-thread edge decoration.
type pattern struct {
	name  string
	comms string // the communications in the cycle, for the recipe's count
	build func(s strength) diy.Cycle
}

func po(src, dst diy.Dir, s strength) diy.Edge {
	switch s {
	case lightweight:
		return diy.Edge{Kind: diy.Fenced, Src: src, Dst: dst, Fence: events.FenceLwsync}
	case full:
		return diy.Edge{Kind: diy.Fenced, Src: src, Dst: dst, Fence: events.FenceSync}
	case deps:
		if src == diy.R {
			return diy.Edge{Kind: diy.Dep, Src: src, Dst: dst, Dep: diy.DepAddr}
		}
		fallthrough
	default:
		return diy.Edge{Kind: diy.Po, Src: src, Dst: dst}
	}
}

// For reading threads the dependency is the natural device; for writing
// threads only fences help — readerPo picks deps when asked for them.
func readerPo(dst diy.Dir, s strength) diy.Edge {
	if s == lightweight || s == full {
		// Readers keep their dependency; escalation happens on writers.
		return diy.Edge{Kind: diy.Dep, Src: diy.R, Dst: dst, Dep: diy.DepAddr}
	}
	return po(diy.R, dst, s)
}

func main() {
	rfe := diy.Edge{Kind: diy.Rfe, Src: diy.W, Dst: diy.R}
	fre := diy.Edge{Kind: diy.Fre, Src: diy.R, Dst: diy.W}
	wse := diy.Edge{Kind: diy.Wse, Src: diy.W, Dst: diy.W}

	patterns := []pattern{
		{"mp", "rf + one fr", func(s strength) diy.Cycle {
			return diy.Cycle{po(diy.W, diy.W, s), rfe, readerPo(diy.R, s), fre}
		}},
		{"wrc", "rfs + one fr", func(s strength) diy.Cycle {
			return diy.Cycle{rfe, po(diy.R, diy.W, s), rfe, readerPo(diy.R, s), fre}
		}},
		{"2+2w", "co + co", func(s strength) diy.Cycle {
			return diy.Cycle{po(diy.W, diy.W, s), wse, po(diy.W, diy.W, s), wse}
		}},
		{"sb", "two frs", func(s strength) diy.Cycle {
			return diy.Cycle{po(diy.W, diy.R, s), fre, po(diy.W, diy.R, s), fre}
		}},
		{"r", "co + fr", func(s strength) diy.Cycle {
			return diy.Cycle{po(diy.W, diy.W, s), wse, po(diy.W, diy.R, s), fre}
		}},
	}

	fmt.Println("pattern  communications   weakest device that forbids it (Power model)")
	for _, p := range patterns {
		forbiddenAt := "never"
		for s := none; s <= full; s++ {
			cycle := p.build(s)
			test, err := diy.Generate(litmus.PPC, cycle)
			if err != nil {
				log.Fatalf("%s at %v: %v", p.name, s, err)
			}
			out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: cat.MustBuiltin("power")})
			if err != nil {
				log.Fatal(err)
			}
			if !out.Allowed() {
				forbiddenAt = s.String()
				break
			}
		}
		fmt.Printf("%-8s %-16s %s\n", p.name, p.comms, forbiddenAt)
	}
	fmt.Println("\nAs Sec. 4.7 prescribes: rf-dominated cycles fall to lwsync (+deps),")
	fmt.Println("co+rf cycles to lwsync everywhere, and anything with two frs or")
	fmt.Println("fr-and-co needs full syncs.")
}
