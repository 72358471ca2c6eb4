// Quickstart: parse a litmus test, simulate it under a model, read off the
// verdict — the smallest end-to-end use of the library.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"herdcats/internal/cat"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

// The message-passing idiom of Fig. 8, with the lightweight fence and
// address dependency that make it safe on Power.
const mpFenced = `PPC mp+lwsync+addr
"message passing, fenced"
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | xor r6,r5,r5 ;
 lwsync | lwzx r7,r6,r3 ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r7=0)`

// The same idiom with no fence: the stale read becomes observable.
const mpBare = `PPC mp
"message passing, unfenced"
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | lwz r6,0(r2) ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r6=0)`

func main() {
	// The Power model of Fig. 38, written in the cat language.
	power, err := cat.Builtin("power")
	if err != nil {
		log.Fatal(err)
	}
	for _, src := range []string{mpBare, mpFenced} {
		test, err := litmus.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: power})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s under %-6s: ", test.Name, out.Model)
		if out.Allowed() {
			fmt.Printf("ALLOWED  — the stale read is reachable (%d/%d executions valid)\n",
				out.Valid, out.Candidates)
		} else {
			fmt.Printf("FORBIDDEN — the protocol is safe (%d/%d executions valid)\n",
				out.Valid, out.Candidates)
		}
	}
}
