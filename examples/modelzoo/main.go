// Model zoo: one behaviour, every model — including a model you write
// yourself in the cat language at the bottom of this file. This is the
// "adaptability" claim of the paper made concrete: the axioms are bricks,
// and herd lets you rearrange them without touching the simulator.
//
//	go run ./examples/modelzoo
package main

import (
	"context"
	"fmt"
	"log"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

// zoo lists the builtin cat models of the paper's architectures.
var zoo = []*cat.Model{
	cat.MustBuiltin("sc"), cat.MustBuiltin("tso"), cat.MustBuiltin("cpp-ra"),
	cat.MustBuiltin("power"), cat.MustBuiltin("power-arm"),
	cat.MustBuiltin("arm"), cat.MustBuiltin("arm-llh"),
}

// userModel is "SC minus the write-read pair" — TSO written from scratch
// in five lines of cat. Edit it and re-run to explore.
const userModel = `"my-tso"
acyclic po-loc|rf|fr|co as sc-per-location
let ppo = po \ WR(po)
let hb = ppo|mfence|rfe
acyclic hb as no-thin-air
let prop = ppo|mfence|rfe|fr
irreflexive fre;prop;hb* as observation
acyclic co|prop as propagation`

func main() {
	tests := []string{"mp", "sb", "lb", "2+2w", "iriw", "r+lwsync+sync", "mp+lwsync+addr"}

	fmt.Printf("%-18s", "test")
	for _, m := range zoo {
		fmt.Printf(" %-10s", m.Name())
	}
	fmt.Println(" my-tso(cat)")

	mine, err := cat.Compile(userModel)
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range tests {
		e, ok := catalog.ByName(name)
		if !ok {
			log.Fatalf("unknown test %q", name)
		}
		test := e.Test()
		fmt.Printf("%-18s", name)
		for _, m := range zoo {
			fmt.Printf(" %-10s", verdict(test, m))
		}
		fmt.Printf(" %s\n", verdict(test, mine))
	}

	// The operational face of the same model (Sec. 7): the intermediate
	// machine agrees with the axiomatic verdicts, execution by execution.
	fmt.Println("\ncross-checking Power against its operational machine on mp...")
	e, _ := catalog.ByName("mp")
	power := cat.MustBuiltin("power")
	out, err := sim.Simulate(context.Background(), sim.Request{Test: e.Test(), Checker: power})
	if err != nil {
		log.Fatal(err)
	}
	opAllowed, err := crosscheck.Operational(power).Decide(context.Background(), e.Test())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("axiomatic: allowed=%v; intermediate machine: allowed=%v (Thm. 7.1)\n",
		out.Allowed(), opAllowed)
}

func verdict(test *litmus.Test, m sim.Checker) string {
	out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: m})
	if err != nil {
		return "error"
	}
	if out.Allowed() {
		return "Allowed"
	}
	return "Forbidden"
}
