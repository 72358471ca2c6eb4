package sim_test

import (
	"context"
	"encoding/json"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/exec"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

// This file is the tombstone of the deprecated Run/Enumerate wrapper
// families (sim/deprecated.go, exec/deprecated.go), deleted after two
// releases of the consolidated API. DESIGN.md §9.3 keeps the full
// old-call → replacement table; what this test preserves is the
// behavioural pin those wrappers' equivalence tests provided — that
// every Request shape an old wrapper mapped onto yields the identical
// outcome. A caller who migrated `sim.RunCompiledOptsCtx(ctx, p, m, b,
// o)` to `sim.Simulate(ctx, sim.Request{Program: p, Checker: m, Budget:
// b, Options: o})` relies on exactly these equivalences.
func TestMigrationTombstoneRequestShapesEquivalent(t *testing.T) {
	e, ok := catalog.ByName("mp")
	if !ok {
		t.Fatal("catalogue has no mp test")
	}
	test := e.Test()
	model := models.Power
	p, err := exec.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	canon := func(out *sim.Outcome) string {
		t.Helper()
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	want, err := sim.Simulate(ctx, sim.Request{Test: test, Checker: model})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := canon(want)

	// One Request shape per deleted wrapper, in the table's order.
	shapes := map[string]sim.Request{
		"Run":                {Test: test, Checker: model},
		"RunCtx":             {Test: test, Checker: model, Budget: exec.Budget{}},
		"RunOptsCtx":         {Test: test, Checker: model, Options: sim.Options{Workers: 2}},
		"RunCompiled":        {Program: p, Checker: model},
		"RunCompiledCtx":     {Program: p, Checker: model, Budget: exec.Budget{}},
		"RunCompiledOptsCtx": {Program: p, Checker: model, Options: sim.Options{Workers: 2}},
	}
	for name, req := range shapes {
		got, err := sim.Simulate(ctx, req)
		if err != nil {
			t.Errorf("%s shape: %v", name, err)
			continue
		}
		if gotJSON := canon(got); gotJSON != wantJSON {
			t.Errorf("%s shape differs:\n got %s\nwant %s", name, gotJSON, wantJSON)
		}
	}

	// Budgets survive every shape the same way: a capped run truncates at
	// the same candidate with the same reason regardless of which old
	// wrapper the caller migrated from.
	b := exec.Budget{MaxCandidates: 2}
	capped, err := sim.Simulate(ctx, sim.Request{Test: test, Checker: models.SC, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	cappedCompiled, err := sim.Simulate(ctx, sim.Request{Program: p, Checker: models.SC, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Incomplete || canon(capped) != canon(cappedCompiled) {
		t.Fatalf("budgeted shapes differ:\n got %s\nwant %s", canon(cappedCompiled), canon(capped))
	}
}
