package bmc_test

import (
	"context"
	"strings"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

func modelOf(id bmc.ModelID) models.Model {
	switch id {
	case bmc.SC:
		return models.SC
	case bmc.TSO:
		return models.TSO
	case bmc.ARM:
		return models.ARM
	default:
		return models.Power
	}
}

// TestAgainstSimulator is the key cross-validation of the encoding (and of
// the SAT solver under it): for every catalogue test and every encodable
// model, SAT-reachability of the final condition must coincide with the
// enumerative simulator's verdict.
func TestAgainstSimulator(t *testing.T) {
	for _, id := range []bmc.ModelID{bmc.SC, bmc.TSO, bmc.Power, bmc.ARM} {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			for _, e := range catalog.Tests() {
				test := e.Test()
				if (test.Arch == litmus.ARM) != (id == bmc.ARM) && id != bmc.SC && id != bmc.TSO {
					// Power and ARM each read their own dialect's fences;
					// SC and TSO ignore fences and take every test.
					continue
				}
				inst, err := bmc.Encode(test, id)
				if err != nil {
					t.Fatalf("%s: encode: %v", e.Name, err)
				}
				got := inst.Solve()
				out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: modelOf(id)})
				if err != nil {
					t.Fatalf("%s: simulate: %v", e.Name, err)
				}
				if got != out.Allowed() {
					t.Errorf("%s under %s: BMC=%v simulator=%v", e.Name, id, got, out.Allowed())
				}
			}
		})
	}
}

// TestPowerCAVVerdicts: the CAV12-style encoding agrees with the
// strengthened multi-event model — in particular it forbids Fig. 37's
// mp+lwsync+addr-bigdetour-addr, which the Power encoding allows.
func TestPowerCAVVerdicts(t *testing.T) {
	e, _ := catalog.ByName("mp+lwsync+addr-bigdetour-addr")
	test := e.Test()

	power, err := bmc.Encode(test, bmc.Power)
	if err != nil {
		t.Fatal(err)
	}
	if !power.Solve() {
		t.Error("Power encoding must allow Fig. 37")
	}
	cav, err := bmc.Encode(test, bmc.PowerCAV)
	if err != nil {
		t.Fatal(err)
	}
	if cav.Solve() {
		t.Error("CAV12 encoding must forbid Fig. 37")
	}

	// On a representative sample they otherwise agree.
	for _, name := range []string{"mp", "mp+lwsync+addr", "sb+syncs", "iriw+lwsyncs", "2+2w+lwsyncs"} {
		e, _ := catalog.ByName(name)
		p, err := bmc.Encode(e.Test(), bmc.Power)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := bmc.Encode(e.Test(), bmc.PowerCAV)
		if err != nil {
			t.Fatal(err)
		}
		if p.Solve() != cv.Solve() {
			t.Errorf("%s: Power and CAV12 encodings disagree", name)
		}
	}
}

// TestEncodingSize: the CAV12 encoding is strictly larger (Tab. XI's cost
// difference).
func TestEncodingSize(t *testing.T) {
	// Fig. 37's test exercises the propagation-model strengthening, so the
	// CAV12 circuit is materially bigger there; on simpler tests constant
	// folding can collapse the difference.
	e, _ := catalog.ByName("mp+lwsync+addr-bigdetour-addr")
	p, err := bmc.Encode(e.Test(), bmc.Power)
	if err != nil {
		t.Fatal(err)
	}
	cav, err := bmc.Encode(e.Test(), bmc.PowerCAV)
	if err != nil {
		t.Fatal(err)
	}
	pv, _ := p.Stats()
	cv, _ := cav.Stats()
	if cv <= pv {
		t.Errorf("CAV12 encoding (%d vars) not larger than Power encoding (%d vars)", cv, pv)
	}
}

// TestControlFlowDivergenceRejected: the encoding requires a uniform
// skeleton; a branch that actually skips a store (different traces have
// different events) must be rejected cleanly.
func TestControlFlowDivergenceRejected(t *testing.T) {
	src := `PPC diverge
{ 0:r1=x; 0:r3=y; }
 P0 | P1 ;
 lwz r5,0(r1) | li r2,1 ;
 cmpwi r5,1 | stw r2,0(r1) ;
 beq L0 | ;
 li r2,1 | ;
 stw r2,0(r3) | ;
 L0: | ;
exists (0:r5=1)`
	_, err := bmc.Encode(litmus.MustParse(src), bmc.Power)
	if err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Errorf("want control-flow divergence error, got %v", err)
	}
}

// TestQuantifierIndependence: the encoding asserts the condition itself;
// the ~exists interpretation is the caller's (UNSAT = property holds).
func TestNotExistsInterpretation(t *testing.T) {
	src := `PPC safem
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | xor r6,r5,r5 ;
 lwsync | lwzx r7,r6,r3 ;
 li r4,1 | ;
 stw r4,0(r2) | ;
~exists (1:r5=1 /\ 1:r7=0)`
	inst, err := bmc.Encode(litmus.MustParse(src), bmc.Power)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Solve() {
		t.Error("mp+lwsync+addr's violation should be unreachable under Power")
	}
}

// TestMemAtomCondition: final-memory atoms (co-maximal write) are encoded
// correctly: 2+2w's x=2 /\ y=2 is SC-unreachable but Power-reachable.
func TestMemAtomCondition(t *testing.T) {
	e, _ := catalog.ByName("2+2w")
	sc, err := bmc.Encode(e.Test(), bmc.SC)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Solve() {
		t.Error("2+2w reachable under SC")
	}
	pw, err := bmc.Encode(e.Test(), bmc.Power)
	if err != nil {
		t.Fatal(err)
	}
	if !pw.Solve() {
		t.Error("2+2w unreachable under Power")
	}
}

// TestC11Encoding: c11.cat lowered over the circuit agrees with the
// native C11 model on the extension's key tests.
func TestC11Encoding(t *testing.T) {
	srcs := []string{
		`C bmc-mp-ra
{ }
 P0 | P1 ;
 atomic_store_explicit(x, 1, relaxed) | r1 = atomic_load_explicit(y, acquire) ;
 atomic_store_explicit(y, 1, release) | r2 = atomic_load_explicit(x, relaxed) ;
exists (1:r1=1 /\ 1:r2=0)`,
		`C bmc-mp-rlx
{ }
 P0 | P1 ;
 atomic_store_explicit(x, 1, relaxed) | r1 = atomic_load_explicit(y, relaxed) ;
 atomic_store_explicit(y, 1, relaxed) | r2 = atomic_load_explicit(x, relaxed) ;
exists (1:r1=1 /\ 1:r2=0)`,
		`C bmc-corr
{ }
 P0 | P1 ;
 r1 = atomic_load_explicit(x, relaxed) | atomic_store_explicit(x, 1, relaxed) ;
 r2 = atomic_load_explicit(x, relaxed) | ;
exists (0:r1=1 /\ 0:r2=0)`,
		`C bmc-2+2w
{ }
 P0 | P1 ;
 atomic_store_explicit(x, 2, release) | atomic_store_explicit(y, 2, release) ;
 atomic_store_explicit(y, 1, release) | atomic_store_explicit(x, 1, release) ;
exists (x=2 /\ y=2)`,
	}
	m, err := cat.Builtin("c11")
	if err != nil {
		t.Fatal(err)
	}
	c11, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		test := litmus.MustParse(src)
		inst, err := bmc.EncodeCat(test, c11)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: models.C11})
		if err != nil {
			t.Fatal(err)
		}
		if inst.Solve() != out.Allowed() {
			t.Errorf("%s: BMC C11 disagrees with the native model (bmc=%v sim=%v)",
				test.Name, !out.Allowed(), out.Allowed())
		}
	}
}

// TestLoweringRejects: the lowering returns an error, never a verdict,
// for a cat construct outside its pre-fixpoint argument (DESIGN.md §16)
// or a static let rec that does not converge, and encodes the same model
// without it.
func TestLoweringRejects(t *testing.T) {
	const rec = "let rec r = rfe | (r;po;r)\n"
	cases := []struct{ name, bad, good string }{
		{"dynamic reflexive", "reflexive po;rfe", "irreflexive po;rfe"},
		{"check through ~", rec + "irreflexive po & ~r", rec + "irreflexive po & r"},
		{"check through the right of \\", rec + "irreflexive po \\ r", rec + "irreflexive r \\ po"},
		{"let rec through the right of \\", "let rec r = rfe | (po \\ r)\nacyclic r", rec + "acyclic r"},
		{"divergent static let rec", "let rec s = po \\ s\nacyclic s | rf", "let rec s = po | (s;s)\nacyclic s | rf"},
	}
	e, _ := catalog.ByName("mp")
	for _, tc := range cases {
		for _, src := range []string{tc.bad, tc.good} {
			m, err := cat.Compile("\"probe\"\n" + src + " as probe\n")
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			cm, err := m.Compiled()
			if err != nil {
				t.Fatal(err)
			}
			_, err = bmc.EncodeCat(e.Test(), cm)
			if bad := src == tc.bad; bad != (err != nil) {
				t.Errorf("%s: encoding %q: err = %v", tc.name, src, err)
			}
		}
	}
}
