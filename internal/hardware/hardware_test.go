package hardware_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/exec"
	"herdcats/internal/hardware"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
)

func observedOn(t *testing.T, machineName, testName string) bool {
	t.Helper()
	m, ok := hardware.ByName(machineName)
	if !ok {
		t.Fatalf("unknown machine %q", machineName)
	}
	e, ok := catalog.ByName(testName)
	if !ok {
		t.Fatalf("unknown test %q", testName)
	}
	obs, err := m.RunLitmus(e.Test())
	if err != nil {
		t.Fatalf("%s on %s: %v", testName, machineName, err)
	}
	return obs.CondObserved
}

// TestPowerMachinesSoundness: the Power machines never exhibit behaviours
// the Power model forbids (Sec. 8.1.1: "Our Power model is not invalidated
// by Power hardware"), and do not exhibit lb (unseen).
func TestPowerMachinesSoundness(t *testing.T) {
	forbidden := []string{"mp+lwsync+addr", "sb+syncs", "iriw+syncs", "2+2w+lwsyncs", "coRR", "coWW"}
	for _, name := range forbidden {
		if observedOn(t, "power7", name) {
			t.Errorf("power7 observed %s, which the Power model forbids", name)
		}
	}
	allowedAndSeen := []string{"mp", "sb", "2+2w", "iriw", "r+lwsync+sync", "w+rwc+eieio+addr+sync", "mp+lwsync+addr-po-detour"}
	for _, name := range allowedAndSeen {
		if !observedOn(t, "power7", name) {
			t.Errorf("power7 did not observe %s, expected visible", name)
		}
	}
	// lb is allowed by the model but not implemented by the silicon.
	if observedOn(t, "power7", "lb") {
		t.Error("power7 observed lb, which Power hardware does not implement")
	}
}

// TestARMLoadLoadHazard: every ARM machine shows the coRR bug (Sec. 8.1.2:
// "a load-load hazard bug in the coherence mechanism of all machines").
func TestARMLoadLoadHazard(t *testing.T) {
	for _, m := range hardware.ByArch(hardware.ARM) {
		coRR := litmus.MustParse(`ARM coRR-arm
{ 0:r3=x; 1:r3=x; }
 P0 | P1 ;
 ldr r1,[r3] | mov r1,#1 ;
 ldr r2,[r3] | str r1,[r3] ;
exists (0:r1=1 /\ 0:r2=0)`)
		obs, err := m.RunLitmus(coRR)
		if err != nil {
			t.Fatal(err)
		}
		if !obs.CondObserved {
			t.Errorf("%s does not show the load-load hazard", m.Name)
		}
	}
	// coRSDWI, the deeper coRR violation of Fig. 31, is likewise visible.
	if !observedOn(t, "tegra3", "coRSDWI") {
		t.Error("tegra3 does not observe coRSDWI")
	}
}

// TestQualcommEarlyCommit: the fri-rfi behaviours of Fig. 32/33 appear on
// the Qualcomm machines and nowhere else.
func TestQualcommEarlyCommit(t *testing.T) {
	tests := []string{"mp+dmb+fri-rfi-ctrlisb", "lb+data+fri-rfi-ctrl", "s+dmb+fri-rfi-data"}
	for _, name := range tests {
		if !observedOn(t, "apq8060", name) {
			t.Errorf("apq8060 does not observe %s", name)
		}
		if observedOn(t, "a5x", name) {
			t.Errorf("a5x observes %s, expected Qualcomm-only", name)
		}
		if observedOn(t, "exynos5250", name) {
			t.Errorf("exynos5250 observes %s, expected Qualcomm-only", name)
		}
	}
}

// TestTegra3Anomalies: the OBSERVATION and coRW violations of Fig. 34/35
// appear on Tegra 3 (and the coRW one on Exynos 4412), and not on sane
// machines.
func TestTegra3Anomalies(t *testing.T) {
	if !observedOn(t, "tegra3", "mp+dmb+pos-ctrlisb+bis") {
		t.Error("tegra3 does not observe the Fig. 35 OBSERVATION violation")
	}
	if observedOn(t, "tegra2", "mp+dmb+pos-ctrlisb+bis") {
		t.Error("tegra2 observes the Fig. 35 violation")
	}
	for _, machine := range []string{"tegra3", "exynos4412"} {
		if !observedOn(t, machine, "moredetour0052") {
			t.Errorf("%s does not observe moredetour0052 (Fig. 34)", machine)
		}
	}
	if observedOn(t, "a6x", "moredetour0052") {
		t.Error("a6x observes moredetour0052")
	}
	// mp+dmb+addr is uncontroversially forbidden; only the Tegra3
	// observation bug shows it.
	if !observedOn(t, "tegra3", "mp+dmb+addr") {
		t.Error("tegra3 should (buggily) observe mp+dmb+addr")
	}
	if observedOn(t, "tegra2", "mp+dmb+addr") {
		t.Error("tegra2 observes mp+dmb+addr")
	}
}

// TestMachineZoo sanity-checks the park's composition.
func TestMachineZoo(t *testing.T) {
	ms := hardware.Machines()
	if len(ms) != 12 {
		t.Fatalf("expected 12 machines, got %d", len(ms))
	}
	if len(hardware.ByArch(hardware.Power)) != 3 {
		t.Error("expected 3 Power machines")
	}
	if len(hardware.ByArch(hardware.ARM)) != 9 {
		t.Error("expected 9 ARM machines")
	}
	for _, m := range hardware.ByArch(hardware.ARM) {
		if !m.HasBug(hardware.BugLoadLoadHazard) {
			t.Errorf("%s lacks the universal load-load hazard", m.Name)
		}
	}
	if _, ok := hardware.ByName("power7"); !ok {
		t.Error("ByName(power7) failed")
	}
	if _, ok := hardware.ByName("vax"); ok {
		t.Error("ByName(vax) should fail")
	}
}

// TestBaseChecksNameTheAxioms pins what the bug gate keys on: on every
// candidate of the catalogue, each cat base model's failed checks are the
// zoo model's failed axioms of Fig. 5, in order, under the cat names
// sc-per-location, no-thin-air, observation and propagation.
func TestBaseChecksNameTheAxioms(t *testing.T) {
	for _, tc := range []struct {
		cat string
		zoo models.Model
	}{{"power", models.Power}, {"power-arm", models.PowerARM}, {"arm", models.ARM}} {
		ev := cat.MustBuiltin(tc.cat).NewEvaluator()
		for _, e := range catalog.Tests() {
			p, err := exec.Compile(e.Test())
			if err != nil {
				t.Fatal(err)
			}
			err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
				var want []string
				for _, a := range tc.zoo.Check(c.X).FailedChecks {
					want = append(want, strings.ReplaceAll(strings.ToLower(a), " ", "-"))
				}
				if got := ev.Check(c.X).FailedChecks; !slices.Equal(got, want) {
					t.Fatalf("%s on %s: cat fails %v, zoo %v", tc.cat, e.Name, got, want)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
