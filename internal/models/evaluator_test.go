package models_test

import (
	"context"
	"reflect"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
)

// zooEvaluatorCorpus interleaves the catalogue with a seeded diy sample
// of PPC and ARM tests, so consecutive tests differ in universe size and
// a reused arena re-anchors between them.
func zooEvaluatorCorpus(t *testing.T) []*litmus.Test {
	t.Helper()
	var generated []*litmus.Test
	for _, g := range []struct {
		arch litmus.Arch
		pool []diy.Edge
	}{{litmus.PPC, diy.PowerPool()}, {litmus.ARM, diy.ARMPool()}} {
		n := 0
		diy.Sample(g.pool, []int{3, 4, 5, 6}, 5, func(c diy.Cycle) bool {
			test, err := diy.Generate(g.arch, c)
			if err != nil {
				return true // a cycle diy cannot lay out
			}
			generated = append(generated, test)
			n++
			return n < 40
		})
	}
	var out []*litmus.Test
	cat := catalog.Tests()
	for i := 0; i < len(cat) || i < len(generated); i++ {
		if i < len(cat) {
			out = append(out, cat[i].Test())
		}
		if i < len(generated) {
			out = append(out, generated[i])
		}
	}
	return out
}

// TestZooEvaluatorMatchesCheck pins arena reuse against the plain path:
// one evaluator per zoo model, reused across every candidate of a mixed
// corpus, must classify each candidate exactly as a fresh check does.
func TestZooEvaluatorMatchesCheck(t *testing.T) {
	zoo := append(models.All(), models.PowerStatic, models.ARMStatic)
	evs := make([]core.Checker, len(zoo))
	for i, m := range zoo {
		evs[i] = m.NewEvaluator()
	}
	sizes := map[int]bool{}
	for _, test := range zooEvaluatorCorpus(t) {
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: compile: %v", test.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			sizes[c.X.N()] = true
			for i, m := range zoo {
				got, want := evs[i].Check(c.X), m.Check(c.X)
				if got.Valid != want.Valid || !reflect.DeepEqual(got.FailedChecks, want.FailedChecks) {
					t.Errorf("%s under %s: evaluator %+v, fresh check %+v", test.Name, m.Name(), got, want)
					return false
				}
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: enumerate: %v", test.Name, err)
		}
	}
	if len(sizes) < 4 {
		t.Errorf("corpus spans %d universe sizes, want several", len(sizes))
	}
}
