package opsim_test

import (
	"context"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/opsim"
	"herdcats/internal/sim"
)

// TestAgreesWithAxiomatic: operational simulation decides tests exactly as
// the single-event axiomatic simulator (the tool-level face of Thm. 7.1).
func TestAgreesWithAxiomatic(t *testing.T) {
	for _, e := range catalog.Tests() {
		test := e.Test()
		if test.Arch != litmus.PPC {
			continue
		}
		op, err := opsim.Run(test, cat.MustBuiltin("power"), 0)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !op.Processed {
			t.Fatalf("%s: state bound hit with default budget", e.Name)
		}
		ax, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: models.Power})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if op.CondObserved != ax.CondObserved {
			t.Errorf("%s: operational observed=%v, axiomatic observed=%v",
				e.Name, op.CondObserved, ax.CondObserved)
		}
		if op.Valid != ax.Valid {
			t.Errorf("%s: operational valid=%d, axiomatic valid=%d", e.Name, op.Valid, ax.Valid)
		}
	}
}

// TestStateBound: a tiny budget makes tests unprocessable, reproducing the
// ppcmem memory-bound effect of Tab. IX.
func TestStateBound(t *testing.T) {
	e, _ := catalog.ByName("iriw")
	res, err := opsim.Run(e.Test(), cat.MustBuiltin("power"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed {
		t.Error("iriw processed within 8 states; expected bound hit")
	}
	res, err = opsim.Run(e.Test(), cat.MustBuiltin("power"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Processed {
		t.Error("iriw not processed within the default budget")
	}
	if res.States == 0 || res.Candidates == 0 {
		t.Errorf("suspicious counters: %+v", res)
	}
}
