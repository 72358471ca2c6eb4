package experiments_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"herdcats/internal/experiments"
)

// Small corpus parameters keep unit tests fast; cmd/cats-experiments runs
// the full-size campaign.
const (
	minLen = 3
	maxLen = 4
	capN   = 0 // full length-3..4 cycle space
)

// TestTable5Shape asserts the qualitative content of Tab. V: the Power
// model is not invalidated by Power hardware but leaves unimplemented
// behaviours unseen; the Power-ARM model is heavily invalidated by ARM
// hardware; the ARM llh model reduces the invalidations to the residual
// anomalies. It also pins every row's counts over the full length-3..4
// corpus, as cmd/cats-experiments prints them by default.
func TestTable5Shape(t *testing.T) {
	rows, err := experiments.Table5(minLen, maxLen, capN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for i, want := range []experiments.Table5Row{
		{Arch: "Power", Model: "Power", Tests: 1825, Invalid: 0, Unseen: 6},
		{Arch: "ARM", Model: "Power-ARM", Tests: 1154, Invalid: 23, Unseen: 5},
		{Arch: "ARM", Model: "ARM llh", Tests: 1154, Invalid: 6, Unseen: 5},
	} {
		if rows[i] != want {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want)
		}
	}
	power, powerARM, armllh := rows[0], rows[1], rows[2]
	if power.Invalid != 0 {
		t.Errorf("Power model invalidated by Power hardware: %d tests", power.Invalid)
	}
	if power.Unseen == 0 {
		t.Error("Power hardware should leave some allowed behaviours unseen (lb family)")
	}
	if powerARM.Invalid == 0 {
		t.Error("Power-ARM model should be invalidated by ARM hardware")
	}
	if armllh.Invalid >= powerARM.Invalid {
		t.Errorf("ARM llh invalid (%d) should be well below Power-ARM invalid (%d)",
			armllh.Invalid, powerARM.Invalid)
	}
	text := experiments.RenderTable5(rows)
	if !strings.Contains(text, "Power") || !strings.Contains(text, "invalid") {
		t.Error("render missing headers")
	}
}

// TestTable6 asserts that every anomaly test is model-forbidden yet
// observed on at least one simulated machine, and pins the machines each
// row is observed on.
func TestTable6(t *testing.T) {
	rows, err := experiments.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Model != "Forbid" {
			t.Errorf("%s: Power-ARM verdict = %s, want Forbid", r.Test, r.Model)
		}
		if !r.Observed {
			t.Errorf("%s: not observed on any simulated machine", r.Test)
		}
	}
	every := "tegra2,tegra3,apq8060,apq8064,a5x,a6x,exynos4412,exynos5250,exynos5410"
	wantMachines := map[string]string{
		"coRR":                   every,
		"coRSDWI":                every,
		"mp+dmb+fri-rfi-ctrlisb": "apq8060,apq8064",
		"lb+data+fri-rfi-ctrl":   "apq8060,apq8064",
		"moredetour0052":         "tegra3,exynos4412",
		"mp+dmb+pos-ctrlisb+bis": "tegra3",
	}
	for _, r := range rows {
		if got := strings.Join(r.Machines, ","); got != wantMachines[r.Test] {
			t.Errorf("%s observed on %s, want %s", r.Test, got, wantMachines[r.Test])
		}
	}
	// Fig. 32's behaviour is a Qualcomm-only feature.
	for _, r := range rows {
		if r.Test == "mp+dmb+fri-rfi-ctrlisb" {
			for _, m := range r.Machines {
				if !strings.HasPrefix(m, "apq") {
					t.Errorf("mp+dmb+fri-rfi-ctrlisb observed on %s, expected Qualcomm only", m)
				}
			}
		}
	}
	_ = experiments.RenderTable6(rows)
}

// TestTable8Shape asserts Tab. VIII's headline: moving from Power-ARM to
// ARM llh removes the bulk of the invalid executions, and the remaining
// anomalies include SC PER LOCATION and OBSERVATION classes. It also pins
// each row's classification over the full length-3..4 corpus, as
// cmd/cats-experiments prints it by default, with no test left unjudged.
func TestTable8Shape(t *testing.T) {
	rows, err := experiments.Table8(minLen, maxLen, capN)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []experiments.Table8Row{
		{Model: "Power-ARM", Total: 91, ByAxes: map[string]int{"P": 1, "S": 77, "T": 2, "OP": 8, "SOP": 3}},
		{Model: "ARM llh", Total: 30, ByAxes: map[string]int{"S": 23, "OP": 7}},
	} {
		if got := rows[i]; got.Model != want.Model || got.Total != want.Total || !maps.Equal(got.ByAxes, want.ByAxes) || got.Errors != 0 {
			t.Errorf("row %d = %+v, want %+v", i, got, want)
		}
	}
	powerARM, armllh := rows[0], rows[1]
	if powerARM.Total == 0 {
		t.Fatal("Power-ARM row empty")
	}
	if armllh.Total*2 >= powerARM.Total {
		t.Errorf("ARM llh total (%d) should be well below Power-ARM total (%d)",
			armllh.Total, powerARM.Total)
	}
	// The Power-ARM row must contain pure-S violations (the llh bug).
	if powerARM.ByAxes["S"] == 0 {
		t.Error("Power-ARM row lacks S-class violations")
	}
	// The residual ARM-llh anomalies include observation-related classes.
	obsResidual := 0
	for k, v := range armllh.ByAxes {
		if strings.Contains(k, "O") {
			obsResidual += v
		}
	}
	if obsResidual == 0 {
		t.Error("ARM llh row lacks observation-class residual anomalies")
	}
	_ = experiments.RenderTable8(rows)
}

// TestTable9Shape asserts Tab. IX's qualitative content: single-event
// axiomatic simulation is the fastest, the multi-event checker is slower,
// and operational exploration is the slowest and fails to process some
// tests within its state budget.
func TestTable9Shape(t *testing.T) {
	c := experiments.BuildCorpus("PPC", 5, 6, 60)
	rows, err := experiments.Table9(c, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	op, multi, single := rows[0], rows[1], rows[2]
	if op.Processed == op.Tests {
		t.Error("operational simulation processed every test; expected state-bound failures")
	}
	if multi.Processed != multi.Tests || single.Processed != single.Tests {
		t.Error("axiomatic simulators must process every test")
	}
	if single.Time >= op.Time {
		t.Errorf("single-event (%v) should beat operational (%v)", single.Time, op.Time)
	}
	if single.Time >= multi.Time {
		t.Errorf("single-event (%v) should beat multi-event (%v)", single.Time, multi.Time)
	}
	_ = experiments.RenderTable9(rows)
}

// TestTable10Shape: the in-tool axiomatic route must beat the operational
// instrumentation route (paper: two orders of magnitude; we assert a clear
// win). It also pins the SAT route's encoding size over its 40 tests.
func TestTable10Shape(t *testing.T) {
	c := experiments.BuildCorpus("PPC", 5, 6, 40)
	rows, err := experiments.Table10(c, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	op, ax := rows[0], rows[1]
	if ax.Time >= op.Time {
		t.Errorf("axiomatic BMC (%v) should beat operational route (%v)", ax.Time, op.Time)
	}
	if ax.Decided != ax.Tests {
		t.Error("BMC must decide every test")
	}
	if ax.Vars != 19263 || ax.Clauses != 65771 {
		t.Errorf("BMC encoding: %d vars, %d clauses, want 19263 and 65771", ax.Vars, ax.Clauses)
	}
	_ = experiments.RenderTable10(rows)
}

// TestTable11Shape: the present model's encoding takes at most 1.5x the
// CAV12 one's time, the fastest of five passes against the fastest of
// five, the passes interleaved so that the models alternate going first
// (the paper reports a ~2x speedup; the bound leaves room for timing
// noise); every verdict of both agrees with the
// simulator under the matching model; and both rows' encoding sizes over
// the 120 tests are pinned (on this corpus the two come out the same
// size).
func TestTable11Shape(t *testing.T) {
	c := experiments.BuildCorpus("PPC", 4, 4, 120)
	rows, err := experiments.Table11(c)
	if err != nil {
		t.Fatal(err)
	}
	cav, present := rows[0], rows[1]
	if present.Time > cav.Time*3/2 {
		t.Errorf("present model (%v) should take at most 1.5x the CAV12 time (%v)", present.Time, cav.Time)
	}
	for _, r := range rows {
		if r.Correct != r.Tests {
			t.Errorf("%s: %d of %d verdicts agree with the simulator", r.Model, r.Correct, r.Tests)
		}
		if r.Vars != 9321 || r.Clauses != 20494 {
			t.Errorf("%s: encoding of %d vars, %d clauses, want 9321 and 20494", r.Model, r.Vars, r.Clauses)
		}
	}
	t.Log("\n" + experiments.RenderTable11(rows))
}

// TestTable12: every case study verifies (fenced holds, buggy violation
// found) and both models agree.
func TestTable12(t *testing.T) {
	rows, err := experiments.Table12()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 case studies, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.HoldsFenced {
			t.Errorf("%s: fenced variant's property does not hold", r.Case)
		}
		if !r.BugFound {
			t.Errorf("%s: buggy variant's violation not found", r.Case)
		}
		if !r.VerdictAgree {
			t.Errorf("%s: CAV12 and present verdicts disagree", r.Case)
		}
	}
	_ = experiments.RenderTable12(rows)
}

// TestTable13And14: the mole inventories of the case studies contain the
// idioms the paper reports (mp in PostgreSQL and RCU; several SC PER
// LOCATION shapes in Apache).
func TestTable13And14(t *testing.T) {
	pg, err := experiments.Table13()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ByName["mp"] == 0 {
		t.Errorf("PostgreSQL inventory lacks mp: %v", pg.ByName)
	}
	rcu, err := experiments.Table14()
	if err != nil {
		t.Fatal(err)
	}
	if rcu.ByName["mp"] == 0 {
		t.Errorf("RCU inventory lacks mp: %v", rcu.ByName)
	}
	ap, err := experiments.TableApache()
	if err != nil {
		t.Fatal(err)
	}
	scperloc := ap.ByName["coWW"] + ap.ByName["coWR"] + ap.ByName["coRW1"] + ap.ByName["coRW2"]
	if scperloc == 0 {
		t.Errorf("Apache inventory lacks SC-per-location shapes: %v", ap.ByName)
	}
	_ = experiments.RenderMole(pg)
}

// TestDebianShape: over the synthetic corpus, message passing dominates
// (the paper's central data-mining observation), and every cycle is
// covered by one of the four axioms.
func TestDebianShape(t *testing.T) {
	rows, axioms, err := experiments.Debian(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Pattern] = r.Count
	}
	if counts["mp"] == 0 || counts["mp"] < counts["sb"] || counts["mp"] < counts["lb"] {
		t.Errorf("mp should dominate: %v", counts)
	}
	total := 0
	for _, c := range axioms {
		total += c
	}
	if total == 0 {
		t.Fatal("no axiom classifications")
	}
	_ = experiments.RenderDebian(rows, axioms)
}

// TestNoDetourAblation reproduces the Sec. 8.2 closing experiment: the
// static ppo (without rdw and detour) frees only a handful of behaviours
// — and never the other way around (it is strictly weaker). It pins each
// row's counts and names over the full length-3..4 corpus and the
// catalogue, as cmd/cats-experiments prints them by default.
func TestNoDetourAblation(t *testing.T) {
	rows, err := experiments.NoDetour(3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []experiments.NoDetourRow{
		{Arch: "PPC", Tests: 1873, Supplementary: 1, Names: []string{"mp+lwsync+rdw"}},
		{Arch: "ARM", Tests: 1163, Supplementary: 1, Names: []string{"mp+dmb+rdw"}},
	}
	if len(rows) != len(want) {
		t.Fatalf("expected %d rows, got %d", len(want), len(rows))
	}
	for i, w := range want {
		r := rows[i]
		if r.Arch != w.Arch || r.Tests != w.Tests || r.Supplementary != w.Supplementary || !slices.Equal(r.Names, w.Names) {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
	_ = experiments.RenderNoDetour(rows)
}
