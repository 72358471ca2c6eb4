// Package hardware simulates the machines of the paper's experimental
// campaign (Sec. 8.1): three generations of Power machines and the ARM
// systems of Tab. VI (Tegra 2/3, Qualcomm APQ8060/8064, Apple A5X/A6X,
// Samsung Exynos 4412/5250/5410).
//
// We have no silicon, so each machine is modelled as a behaviour set —
// substitution documented in DESIGN.md. A machine observes a candidate
// execution iff
//
//	base-model valid ∧ not restricted   (normal operation)
//	∨ some injected bug fires           (hardware anomalies)
//
// The restrictions encode behaviours that are architecturally allowed but
// not implemented (Power machines do not exhibit lb: Sec. 8.1.1 "this is
// to be expected as the lb pattern is not yet implemented on Power
// hardware"). The bugs encode the anomalies the paper discovered:
//
//   - the load-load hazard (coRR violation) acknowledged by ARM
//     ([arm 2011]), present on every tested ARM machine;
//   - read-write hazards (coRW2, Fig. 34 moredetour0052) on Tegra 3 and
//     Exynos 4412;
//   - OBSERVATION violations (Fig. 35, mp+dmb+ctrlisb and friends) on
//     Tegra 3;
//   - the early-commit behaviours (Fig. 32/33) on the Qualcomm machines —
//     claimed as desirable features by the designers, hence part of those
//     machines' base model (the proposed ARM model) rather than a bug.
//
// Cat files decide every behaviour: the base models are the builtin cat
// models power, power-arm and arm, whose failed checks the bug gate reads
// by name; the restrictions and the hazards are the checks of the
// package's own cat programs, silicon and its restriction-only part lbOnly,
// which are not builtin models.
package hardware

import (
	"context"
	"hash/fnv"
	"slices"

	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// Arch tags a machine family.
type Arch string

// Machine families.
const (
	Power Arch = "Power"
	ARM   Arch = "ARM"
)

// Bug identifies an injected hardware anomaly.
type Bug string

// The anomalies of Sec. 8.1.2.
const (
	// BugLoadLoadHazard allows coRR violations (all tested ARM chips).
	BugLoadLoadHazard Bug = "load-load-hazard"
	// BugReadWriteHazard allows coRW violations (Fig. 34, Tegra3/Exynos4412).
	BugReadWriteHazard Bug = "read-write-hazard"
	// BugObservation allows pure OBSERVATION violations (Fig. 35, Tegra3).
	BugObservation Bug = "observation"
)

// Machine is one simulated piece of hardware.
type Machine struct {
	Name string
	Arch Arch
	// base is the cat model of the machine's intended behaviour.
	base *cat.Model
	// restrictLB forbids load-buffering shapes the silicon does not
	// implement (Power machines).
	restrictLB bool
	// earlyCommitLB exempts load-buffering shapes that run through an
	// internal read-from (the Qualcomm fri-rfi behaviours of Fig. 33)
	// from the lb restriction.
	earlyCommitLB bool
	// bugs are the machine's injected anomalies.
	bugs map[Bug]bool
}

// HasBug reports whether the machine carries the given anomaly.
func (m Machine) HasBug(b Bug) bool { return m.bugs[b] }

// Machines returns the full simulated park, in the paper's order.
func Machines() []Machine {
	armBugs := func(bugs ...Bug) map[Bug]bool {
		out := map[Bug]bool{BugLoadLoadHazard: true}
		for _, b := range bugs {
			out[b] = true
		}
		return out
	}
	power, powerARM, arm := cat.MustBuiltin("power"), cat.MustBuiltin("power-arm"), cat.MustBuiltin("arm")
	return []Machine{
		{Name: "power-g5", Arch: Power, base: power, restrictLB: true},
		{Name: "power6", Arch: Power, base: power, restrictLB: true},
		{Name: "power7", Arch: Power, base: power, restrictLB: true},
		{Name: "tegra2", Arch: ARM, base: powerARM, restrictLB: true, bugs: armBugs()},
		{Name: "tegra3", Arch: ARM, base: powerARM, restrictLB: true,
			bugs: armBugs(BugReadWriteHazard, BugObservation)},
		// The Qualcomm machines exhibit the early-commit behaviours of
		// Fig. 32/33, including load-buffering shapes mediated by internal
		// read-from (lb+data+fri-rfi-ctrl was observed on APQ8064), so
		// their base is the proposed ARM model and their lb restriction
		// exempts rfi-mediated shapes; plain lb stays unseen.
		{Name: "apq8060", Arch: ARM, base: arm, restrictLB: true, earlyCommitLB: true, bugs: armBugs()},
		{Name: "apq8064", Arch: ARM, base: arm, restrictLB: true, earlyCommitLB: true, bugs: armBugs()},
		{Name: "a5x", Arch: ARM, base: powerARM, restrictLB: true, bugs: armBugs()},
		{Name: "a6x", Arch: ARM, base: powerARM, restrictLB: true, bugs: armBugs()},
		{Name: "exynos4412", Arch: ARM, base: powerARM, restrictLB: true,
			bugs: armBugs(BugReadWriteHazard)},
		{Name: "exynos5250", Arch: ARM, base: powerARM, restrictLB: true, bugs: armBugs()},
		{Name: "exynos5410", Arch: ARM, base: powerARM, restrictLB: true, bugs: armBugs()},
	}
}

// ByArch returns the machines of one family.
func ByArch(a Arch) []Machine {
	var out []Machine
	for _, m := range Machines() {
		if m.Arch == a {
			out = append(out, m)
		}
	}
	return out
}

// ByName returns a machine by name.
func ByName(name string) (Machine, bool) {
	for _, m := range Machines() {
		if m.Name == name {
			return m, true
		}
	}
	return Machine{}, false
}

// KnownAnomalies lists the tests the paper reports as exhibiting the rare
// Tegra3/Exynos anomalies (Tab. VI and Sec. 8.1.2); the corresponding bugs
// always fire on them. On other tests the rare bugs fire only in a
// deterministic fraction of cases, reflecting their observed rarity
// (e.g. 9 hits in 17G runs for moredetour0052).
var KnownAnomalies = map[string]bool{
	"coRSDWI":                true,
	"moredetour0052":         true,
	"mp+dmb+pos-ctrlisb+bis": true,
	"mp+dmb+addr":            true,
	"mp+dmb+ctrlisb":         true,
	"mp+dmb.st+addr":         true,
}

// rareBugWindow is the fraction denominator for rare bugs on tests outside
// KnownAnomalies.
const rareBugWindow = 64

// rareGate decides deterministically whether a rare bug can show on a test.
func (m Machine) rareGate(testName string) bool {
	if KnownAnomalies[testName] {
		return true
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(m.Name))
	_, _ = h.Write([]byte(testName))
	return h.Sum32()%rareBugWindow == 0
}

// lbChecks decide the lb restriction (Machine.restricted).
const lbChecks = `
(* Fails on lb shapes, which the silicon does not implement. *)
acyclic RW(po)|rfe as lb
(* Fails on an internal read-from, through which lb commits early. *)
empty rfi as rfi
`

// silicon is what the simulated silicon does beside its base model: a
// hazard bug explains a pure SC PER LOCATION failure its check passes,
// unless the lb restriction removes the candidate.
var silicon = cat.MustCompile(`"silicon"
(* SC PER LOCATION under the load-load hazard (coRR): no RR pairs. *)
acyclic (po-loc \ RR(po-loc))|rf|fr|co as load-load-hazard
(* ... and under read-write hazards (coRW2): write-sourced pairs only. *)
acyclic WM(po-loc)|rf|fr|co as read-write-hazard
` + lbChecks)

// lbOnly is silicon's lb restriction alone, all a candidate its base
// model allows needs.
var lbOnly = cat.MustCompile(`"silicon-lb"` + lbChecks)

// An Observer decides, candidate by candidate, what one machine can
// exhibit over one search. It holds the machine's base evaluator, the
// silicon programs', and for the OBSERVATION bug the proposed ARM
// model's, so it serves one goroutine.
type Observer struct {
	m       Machine
	base    core.Checker
	lb      core.Checker
	silicon core.Checker // made on first use, like arm
	arm     core.Checker
}

// Observer returns a fresh observer of the machine.
func (m Machine) Observer() *Observer {
	return &Observer{m: m, base: m.base.NewEvaluator(), lb: lbOnly.NewEvaluator()}
}

// Release hands the observer's evaluators back to their models' pools;
// the observer must not be used again.
func (o *Observer) Release() {
	for _, ev := range []core.Checker{o.base, o.lb, o.silicon, o.arm} {
		core.Release(ev) // a nil one, never made, is no Releaser
	}
	*o = Observer{}
}

// Observes reports whether the machine can exhibit the candidate execution
// x of the named test: its base model allows it and the silicon implements
// it, or one of its bugs fires, the rare ones gated per test (rareGate).
// At most one silicon program runs, and only where a restriction or a
// hazard can decide: lbOnly on a candidate the base model allows, the
// whole silicon program on a pure SC PER LOCATION failure.
func (o *Observer) Observes(x *events.Execution, testName string) bool {
	if o.base == nil {
		panic("hardware: Observes on a released observer")
	}
	m := o.m
	res := o.base.Check(x)
	if res.Valid {
		return !m.restrictLB || !m.restricted(o.lb.Check(x).FailedChecks)
	}
	failed := res.FailedChecks
	if len(failed) == 0 {
		return false // a failed evaluation
	}
	if len(failed) == 1 && failed[0] == "sc-per-location" {
		// The load-load hazard is frequent (Tab. VI: 10M/95G) and never
		// gated; the read-write hazard is rare. Write-sourced coherence
		// (coWW, coWR) holds under both, as observed.
		llh, rwh := m.bugs[BugLoadLoadHazard], m.bugs[BugReadWriteHazard] && m.rareGate(testName)
		if !llh && !rwh {
			return false
		}
		if o.silicon == nil {
			o.silicon = silicon.NewEvaluator()
		}
		sf := o.silicon.Check(x).FailedChecks
		return !m.restricted(sf) && (llh && !slices.Contains(sf, "load-load-hazard") ||
			rwh && !slices.Contains(sf, "read-write-hazard"))
	}
	// OBSERVATION violations drag PROPAGATION along whenever the observed
	// chain runs through a full fence (the fre;prop;hb* loop is itself a
	// prop self-loop), so Tab. VIII classifies the Tegra3 anomalies as
	// "OP"; the bug gate accordingly accepts {O} and {O,P}.
	onlyObs := slices.Contains(failed, "observation") && !slices.ContainsFunc(failed, func(c string) bool {
		return c != "observation" && c != "propagation"
	})
	if !onlyObs || !m.bugs[BugObservation] || !m.rareGate(testName) {
		return false
	}
	// The Tegra3 OBSERVATION bug only concerns genuinely anomalous
	// behaviours, not the early-commit features the proposed ARM model
	// legitimises (those were Qualcomm-only observations).
	if o.arm == nil {
		o.arm = cat.MustBuiltin("arm").NewEvaluator()
	}
	return !o.arm.Check(x).Valid
}

// restricted reports, from a silicon program's failed checks, whether
// the silicon does not implement a behaviour its base model allows: an lb
// shape on a machine restricting lb, unless the machine commits early and
// the shape runs through an internal read-from.
func (m Machine) restricted(silicon []string) bool {
	return m.restrictLB && slices.Contains(silicon, "lb") &&
		!(m.earlyCommitLB && slices.Contains(silicon, "rfi"))
}

// Observation is the result of running one litmus test on one machine.
type Observation struct {
	Machine string
	Test    *litmus.Test
	// States histograms the observable final states.
	States map[string]int
	// CondObserved reports whether the final condition was ever observed.
	CondObserved bool
	// Candidates and Observed count enumerated vs. observable executions.
	Candidates int
	Observed   int
}

// RunLitmus exercises a test on the machine, like the litmus tool: it
// reports the set of observable final states and whether the condition hit.
func (m Machine) RunLitmus(test *litmus.Test) (*Observation, error) {
	p, err := exec.Compile(test)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	obs := &Observation{Machine: m.Name, Test: test, States: map[string]int{}}
	o := m.Observer()
	defer o.Release()
	err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		obs.Candidates++
		if !o.Observes(c.X, test.Name) {
			return true
		}
		obs.Observed++
		obs.States[c.State.Key(test.Cond)]++
		if test.Cond == nil || test.Cond.Eval(c.State) {
			obs.CondObserved = true
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return obs, nil
}
