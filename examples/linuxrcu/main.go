// Linux RCU, end to end: the paper's Fig. 40 case study pushed through all
// three tools —
//
//  1. mole finds the message-passing idiom in the C source;
//  2. herd decides the distilled litmus tests under the Power model;
//  3. the SAT-based model checker verifies the publication property and
//     finds the bug in the fence-free variant (Tab. XII).
//
// go run ./examples/linuxrcu
package main

import (
	"context"
	"fmt"
	"log"

	"herdcats/internal/bmc"
	"herdcats/internal/cases"
	"herdcats/internal/cat"
	"herdcats/internal/mole"
	"herdcats/internal/sim"
)

func main() {
	// 1. Static mining of the C source (Sec. 9).
	fmt.Println("== mole on the RCU source (Fig. 40) ==")
	prog := mole.NewProgram()
	if err := prog.Add(mole.RCUSource); err != nil {
		log.Fatal(err)
	}
	analysis := mole.Analyze(prog)
	fmt.Printf("entry points: %v\n", analysis.Entries)
	fmt.Printf("thread groups: %v\n", analysis.Groups)
	report := analysis.FindCycles(2)
	fmt.Printf("idioms found: mp ×%d (of %d cycles, %d patterns)\n\n",
		report.ByName["mp"], len(report.Cycles), len(report.ByName))

	// 2. The distilled litmus tests under the Power model (Sec. 8.3).
	rcu, _ := cases.ByName("RCU")
	fmt.Println("== herd on the distilled publication idiom ==")
	for _, tc := range []struct {
		label string
		run   func() (*sim.Outcome, error)
	}{
		{"with rcu_assign_pointer's lwsync", func() (*sim.Outcome, error) {
			return sim.Simulate(context.Background(), sim.Request{Test: rcu.Test(), Checker: cat.MustBuiltin("power")})
		}},
		{"without the fence (buggy)", func() (*sim.Outcome, error) {
			return sim.Simulate(context.Background(), sim.Request{Test: rcu.BuggyTest(), Checker: cat.MustBuiltin("power")})
		}},
	} {
		out, err := tc.run()
		if err != nil {
			log.Fatal(err)
		}
		verdict := "stale read FORBIDDEN"
		if out.Allowed() {
			verdict = "stale read ALLOWED"
		}
		fmt.Printf("  %-36s %s\n", tc.label, verdict)
	}

	// 3. SAT-based verification (Sec. 8.4).
	fmt.Println("\n== bounded model checking (CBMC-style, Tab. XII) ==")
	okInst, err := bmc.Encode(rcu.Test(), bmc.Power)
	if err != nil {
		log.Fatal(err)
	}
	bugInst, err := bmc.Encode(rcu.BuggyTest(), bmc.Power)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fenced variant:  violation reachable = %v (property PROVED)\n", okInst.Solve())
	fmt.Printf("  buggy variant:   violation reachable = %v (bug FOUND)\n", bugInst.Solve())
}
