package cat_test

import (
	"context"
	"strings"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/rel"
)

// diyCorpus generates up to n tests of the dialect from a seeded diy
// sample over its edge pool.
func diyCorpus(t *testing.T, arch litmus.Arch, pool []diy.Edge, n int) []*litmus.Test {
	t.Helper()
	var out []*litmus.Test
	diy.Sample(pool, []int{3, 4, 5, 6}, 7, func(c diy.Cycle) bool {
		if test, err := diy.Generate(arch, c); err == nil {
			out = append(out, test)
		}
		return len(out) < n
	})
	if len(out) == 0 {
		t.Fatalf("no %s tests generated", arch)
	}
	return out
}

// TestBindingsMatchZoo: the relations the operational machine reads off a
// compiled cat model — its ppo, fence, prop, hb and po-loc-sc bindings —
// equal the zoo's Architecture.PPO, Fences and Prop, ppo ∪ fences ∪ rfe,
// and the po-loc its SC PER LOCATION reads (without read-read pairs where
// the zoo allows load-load hazards), on every candidate of the catalogue
// and of a seeded diy corpus of the model's dialect. One Reader per model serves every candidate, so values
// handed out must not depend on what its evaluator checked before.
func TestBindingsMatchZoo(t *testing.T) {
	for _, tc := range []struct {
		cat  string
		zoo  models.Model
		arch litmus.Arch
		pool []diy.Edge
	}{
		{"power", models.Power, litmus.PPC, diy.PowerPool()},
		{"arm", models.ARM, litmus.ARM, diy.ARMPool()},
		{"arm-llh", models.ARMllh, litmus.ARM, diy.ARMPool()},
	} {
		t.Run(tc.cat, func(t *testing.T) {
			c, err := cat.MustBuiltin(tc.cat).Compiled()
			if err != nil {
				t.Fatal(err)
			}
			names := []string{"ppo", "fence", "prop", "hb", "po-loc-sc"}
			r, err := c.Reader(names...)
			if err != nil {
				t.Fatal(err)
			}
			tests := diyCorpus(t, tc.arch, tc.pool, 60)
			for _, e := range catalog.Tests() {
				tests = append(tests, e.Test())
			}
			candidates := 0
			for _, test := range tests {
				p, err := exec.Compile(test)
				if err != nil {
					t.Fatalf("%s: %v", test.Name, err)
				}
				err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
					candidates++
					x := cd.X
					got, err := r.Values(x)
					if err != nil {
						t.Fatalf("%s: %v", test.Name, err)
					}
					a := tc.zoo.Arch
					ppo, err := a.PPO(x, nil)
					if err != nil {
						t.Fatalf("%s: %v", test.Name, err)
					}
					fences := a.Fences(x, nil)
					poloc := x.POLoc
					if tc.zoo.Opts.AllowLoadLoadHazard {
						poloc = poloc.Diff(poloc.Restrict(x.R, x.R))
					}
					want := []rel.Rel{ppo, fences, a.Prop(x, ppo, fences, nil), ppo.Union(fences).Union(x.RFE), poloc}
					for i, name := range names {
						if !got[i].Equal(want[i]) {
							t.Fatalf("%s: %s: cat %v, zoo %v\n%s", test.Name, name, got[i], want[i], x)
						}
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if candidates < 1000 {
				t.Fatalf("only %d candidates", candidates)
			}
		})
	}
}

// TestReaderResolvesLets: a Reader reads let bindings only, each as bound
// at the end of the model, and reports a divergent model as an error.
func TestReaderResolvesLets(t *testing.T) {
	c, err := cat.MustCompile("\"shadow\"\nlet a = po\nlet b = a\nlet a = rf\nacyclic a | b\n").Compiled()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"po", "c", "rfe"} {
		if _, err := c.Reader(name); err == nil {
			t.Errorf("Reader(%q): want an error", name)
		}
	}
	r, err := c.Reader("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := catalog.ByName("mp")
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
		v, err := r.Values(cd.X)
		if err != nil {
			t.Fatal(err)
		}
		if !v[0].Equal(cd.X.MemRF()) || !v[1].Equal(cd.X.PO.Restrict(cd.X.M, cd.X.M)) {
			t.Fatalf("a = %v, b = %v; want rf and po", v[0], v[1])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	div, err := cat.MustCompile("\"diverge\"\nlet rec bad = ~bad & po\nacyclic bad\n").Compiled()
	if err != nil {
		t.Fatal(err)
	}
	r, err = div.Reader("bad")
	if err != nil {
		t.Fatal(err)
	}
	err = p.Search(context.Background(), exec.Request{}, func(cd *exec.Candidate) bool {
		if _, err := r.Values(cd.X); err == nil || !strings.Contains(err.Error(), "did not converge") {
			t.Fatalf("Values: want a convergence error, got %v", err)
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}
