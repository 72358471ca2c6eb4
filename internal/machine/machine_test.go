package machine_test

import (
	"context"
	"fmt"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/machine"
	"herdcats/internal/models"
)

// thm71Models are the cat models the machine is built from, each with the
// zoo model whose axiomatic verdict is the oracle. arm-llh's po-loc-sc
// binding drops the read-read pairs of po-loc, so its machine exhibits the
// load-load hazard the zoo's ARMllh allows.
var thm71Models = []struct {
	cat    string
	oracle models.Model
}{{"power", models.Power}, {"arm", models.ARM}, {"power-arm", models.PowerARM}, {"arm-llh", models.ARMllh}}

// newModel binds the machine to the named builtin cat model.
func newModel(t *testing.T, name string) *machine.Model {
	t.Helper()
	md, err := machine.NewModel(cat.MustBuiltin(name))
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// TestMachineEquivalence is the experimental counterpart of Thm. 7.1: on
// every candidate execution of every catalogue test, the intermediate
// machine built from a cat model accepts some path iff the zoo's
// axiomatic model validates the candidate. We check it for Power, the
// proposed ARM model, Power-ARM and ARM llh.
func TestMachineEquivalence(t *testing.T) {
	for _, tm := range thm71Models {
		md := newModel(t, tm.cat)
		t.Run(md.Name(), func(t *testing.T) {
			for _, e := range catalog.Tests() {
				p, err := exec.Compile(e.Test())
				if err != nil {
					t.Fatalf("%s: %v", e.Name, err)
				}
				mismatches := 0
				err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
					axiomatic := tm.oracle.Check(c.X).Valid
					mach, err := machine.New(md, c.X)
					if err != nil {
						t.Fatalf("%s: %v", e.Name, err)
					}
					operational := mach.Accepts()
					if axiomatic != operational {
						mismatches++
						t.Errorf("%s: axiomatic=%v operational=%v\n%s",
							e.Name, axiomatic, operational, c.X)
					}
					return mismatches < 2
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestConstructedPathAccepted realises the constructive half of Lemma 7.3:
// for every axiomatically valid candidate, the explicit linearised path is
// accepted by the machine, for each model of TestMachineEquivalence.
func TestConstructedPathAccepted(t *testing.T) {
	for _, tm := range thm71Models {
		md := newModel(t, tm.cat)
		t.Run(md.Name(), func(t *testing.T) {
			for _, e := range catalog.Tests() {
				p, err := exec.Compile(e.Test())
				if err != nil {
					t.Fatalf("%s: %v", e.Name, err)
				}
				err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
					if !tm.oracle.Check(c.X).Valid {
						return true
					}
					mach, err := machine.New(md, c.X)
					if err != nil {
						t.Fatalf("%s: %v", e.Name, err)
					}
					path, ok := mach.ConstructPath()
					if !ok {
						t.Errorf("%s: label ordering of Lemma 7.3 is cyclic on a valid execution", e.Name)
						return false
					}
					if !mach.AcceptsPath(path) {
						t.Errorf("%s: constructed path rejected:\n%v", e.Name, path)
						return false
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMachineOutlivesItsCandidate: a machine keeps its answers after its
// model's evaluator has moved on to other candidates, so registers the
// evaluator reuses cannot alias into it. Every candidate of the
// catalogue's PPC tests gets a machine; after the whole search, each must still give the
// answers — acceptance, state count and the Lemma 7.3 path, which reads
// the relations themselves — that a machine built afresh for its
// candidate gives.
func TestMachineOutlivesItsCandidate(t *testing.T) {
	md := newModel(t, "power")
	type built struct {
		mach   *machine.Machine
		accept bool
		states int
		path   string
		c      *exec.Candidate
	}
	pathOf := func(m *machine.Machine) string {
		p, ok := m.ConstructPath()
		return fmt.Sprint(ok, p)
	}
	var all []built
	for _, e := range catalog.Tests() {
		if e.Test().Arch != litmus.PPC {
			continue
		}
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			// The search reuses its candidate after the yield, so a machine
			// kept past it is built on the candidate's own copy: the
			// evaluator's registers are then all it could share.
			c = c.Clone()
			mach, err := machine.New(md, c.X)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, built{mach, mach.Accepts(), mach.CountStates(), pathOf(mach), c})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	accepted := 0
	for i, b := range all {
		fresh, err := machine.New(newModel(t, "power"), b.c.X)
		if err != nil {
			t.Fatal(err)
		}
		if b.mach.Accepts() != b.accept || b.mach.CountStates() != b.states || pathOf(b.mach) != b.path ||
			fresh.Accepts() != b.accept || fresh.CountStates() != b.states || pathOf(fresh) != b.path {
			t.Fatalf("candidate %d: machine changed after its evaluator moved on", i)
		}
		if b.accept {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(all) {
		t.Fatalf("%d of %d candidates accepted: the corpus does not tell machines apart", accepted, len(all))
	}
}

// TestPathValidation checks AcceptsPath rejects out-of-order paths.
func TestPathValidation(t *testing.T) {
	e, _ := catalog.ByName("mp")
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	md := newModel(t, "power")
	err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		if !models.Power.Check(c.X).Valid {
			return true
		}
		mach, err := machine.New(md, c.X)
		if err != nil {
			t.Fatal(err)
		}
		path, ok := mach.ConstructPath()
		if !ok || len(path) < 2 {
			t.Fatal("no constructed path")
		}
		// A commit-read before its satisfy-read must be rejected: find a
		// read's labels and swap them.
		for i := range path {
			if path[i].Kind == machine.SatisfyRead {
				for j := i + 1; j < len(path); j++ {
					if path[j].Kind == machine.CommitRead && path[j].Event == path[i].Event {
						bad := append([]machine.Label(nil), path...)
						bad[i], bad[j] = bad[j], bad[i]
						if mach.AcceptsPath(bad) {
							t.Error("machine accepted commit-read before satisfy-read")
						}
						checked = true
						return false
					}
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("no read labels exercised")
	}
}

// TestCountStates sanity-checks the state-space explorer used for the
// operational cost profile (Tab. IX): it must visit at least one state per
// label prefix of an accepted path.
func TestCountStates(t *testing.T) {
	e, _ := catalog.ByName("mp")
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	md := newModel(t, "power")
	err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		mach, err := machine.New(md, c.X)
		if err != nil {
			t.Fatal(err)
		}
		n := mach.CountStates()
		if mach.Accepts() && n < len(mach.Labels())+1 {
			t.Errorf("CountStates = %d, expected at least %d", n, len(mach.Labels())+1)
		}
		return !t.Failed()
	})
	if err != nil {
		t.Fatal(err)
	}
}
