package bmc_test

import (
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/catalog"
	"herdcats/internal/exec"
)

// TestReleasedInstanceRefuses: an instance's storage goes back to the
// pool on Release, after which the instance never answers: Decide
// returns an error, and Solve, Stats and Clauses panic. A second Release
// panics too.
func TestReleasedInstanceRefuses(t *testing.T) {
	e, ok := catalog.ByName("mp")
	if !ok {
		t.Fatal("catalogue has no mp")
	}
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := bmc.EncodeShared(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Decide(bmc.SC); err != nil {
		t.Fatal(err)
	}
	shared.Release()
	if allowed, err := shared.Decide(bmc.SC); err == nil {
		t.Fatalf("Decide on a released instance answered %v", allowed)
	}

	single, err := bmc.Encode(e.Test(), bmc.Power)
	if err != nil {
		t.Fatal(err)
	}
	single.Solve()
	single.Release()
	for name, use := range map[string]func(){
		"Solve":   func() { single.Solve() },
		"Stats":   func() { single.Stats() },
		"Clauses": func() { single.Clauses() },
		"Release": single.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released instance did not panic", name)
				}
			}()
			use()
		}()
	}
}
