package experiments_test

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"herdcats/internal/cat"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/experiments"
	"herdcats/internal/litmus"
)

// failingOn is a cat model whose evaluators fail on every candidate that
// holds a fence of the given kind, and check the others as the model does.
type failingOn struct {
	*cat.Model
	fence events.FenceKind
}

func (f failingOn) NewEvaluator() core.Checker {
	return failingEvaluator{f.Model.NewEvaluator(), f.fence}
}

type failingEvaluator struct {
	core.Checker
	fence events.FenceKind
}

func (f failingEvaluator) Check(x *events.Execution) core.Result {
	if slices.ContainsFunc(x.Events, func(e events.Event) bool { return e.Kind == events.Fence && e.Fence == f.fence }) {
		return core.Result{Err: errors.New("evaluation failed")}
	}
	return f.Checker.Check(x)
}

func (f failingEvaluator) Release() { core.Release(f.Checker) }

// TestTable8CountsEvaluationErrors: a test on which a model fails to
// evaluate a candidate is counted in Errors and adds nothing to any row,
// so the rows equal those of the corpus without it.
func TestTable8CountsEvaluationErrors(t *testing.T) {
	tests := experiments.BuildCorpus(litmus.ARM, 3, 3, 0).Tests
	var with, without []*litmus.Test
	for _, test := range tests {
		fenced := false
		for _, th := range test.Threads {
			fenced = fenced || slices.ContainsFunc(th, func(line string) bool { return strings.TrimSpace(line) == "dmb" })
		}
		if fenced {
			with = append(with, test)
		} else {
			without = append(without, test)
		}
	}
	if len(with) == 0 || len(without) == 0 {
		t.Fatalf("%d tests with a dmb, %d without: want both", len(with), len(without))
	}
	model := cat.MustBuiltin("power-arm")
	want := experiments.Table8Of(without, model)[0]
	got := experiments.Table8Of(tests, failingOn{model, events.FenceDMB})[0]
	if want.Total == 0 {
		t.Fatal("the corpus without dmb has no invalid observed execution")
	}
	if got.Total != want.Total || !maps.Equal(got.ByAxes, want.ByAxes) || got.Errors != len(with) {
		t.Errorf("with a model failing on dmb: %+v; want %+v with %d errors", got, want, len(with))
	}
}
