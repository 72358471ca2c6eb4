package bmc_test

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
)

// strongestFirst lists every ModelID, each model before any weaker one.
var strongestFirst = []bmc.ModelID{bmc.SC, bmc.TSO, bmc.PowerCAV, bmc.Power, bmc.ARM}

// TestSharedMatchesStandalone: one instance from EncodeShared, with every
// model lowered onto it behind its own activation literal, must give each
// model the verdict (or the error) of that model's standalone Encode. It
// runs over TestAgainstSimulatorDiy's corpora (300 diy PPC tests with the
// detour test and the deep shapes, 300 diy ARM tests) and the catalogue,
// every model on every test, lowering the models strongest first and then
// weakest first on two fresh instances. A weak model's allowed verdict
// solved after stronger models were lowered is where an assertion that
// escaped its guard shows. Solve with no activation literal must also
// equal a model-free instance's answer: no model's assertions leak into
// another's query.
func TestSharedMatchesStandalone(t *testing.T) {
	src, err := os.ReadFile(detourTest)
	if err != nil {
		t.Fatal(err)
	}
	tests := append(diyCorpus(t, 300), litmus.MustParse(string(src)))
	for _, cy := range deepCycles {
		c, err := diy.ParseCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil {
			t.Fatalf("%s: %v", cy, err)
		}
		tests = append(tests, test)
	}
	tests = append(tests, diyCorpusOf(t, litmus.ARM, diy.ARMPool(), 300)...)
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Test())
	}
	weakestFirst := slices.Clone(strongestFirst)
	slices.Reverse(weakestFirst)

	allowed := map[bmc.ModelID]int{}
	for _, test := range tests {
		want := map[bmc.ModelID]string{}
		for _, id := range strongestFirst {
			inst, err := bmc.Encode(test, id)
			if err != nil {
				want[id] = "error: " + err.Error()
				continue
			}
			want[id] = fmt.Sprint(inst.Solve())
			if want[id] == "true" {
				allowed[id]++
			}
		}
		prog, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		free, freeErr := bmc.EncodeShared(prog)
		for _, order := range [][]bmc.ModelID{strongestFirst, weakestFirst} {
			shared, err := bmc.EncodeShared(prog)
			if (err == nil) != (freeErr == nil) {
				t.Fatalf("%s: shared instance error %v, model-free %v", test.Name, err, freeErr)
			}
			if err != nil {
				for _, id := range order {
					if got := "error: " + err.Error(); got != want[id] {
						t.Errorf("%s under %s: shared skeleton %s, standalone %s", test.Name, id, got, want[id])
					}
				}
				continue
			}
			for _, id := range order {
				answer, err := shared.Decide(id)
				got := fmt.Sprint(answer)
				if err != nil {
					got = "error: " + err.Error()
				}
				if got != want[id] {
					t.Errorf("%s under %s, order %v: shared %s, standalone %s", test.Name, id, order, got, want[id])
				}
			}
			if got, want := shared.Solve(), free.Solve(); got != want {
				t.Errorf("%s, order %v: Solve() with every model lowered = %v, model-free %v", test.Name, order, got, want)
			}
		}
	}
	t.Logf("%d tests; allowed per model: %v", len(tests), allowed)
}

// TestDecideOnStandaloneRefused: an instance that Encode built holds its
// model unguarded, so it cannot answer for another model.
func TestDecideOnStandaloneRefused(t *testing.T) {
	e, _ := catalog.ByName("mp")
	inst, err := bmc.Encode(e.Test(), bmc.SC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Decide(bmc.Power); err == nil {
		t.Fatal("Decide on a single-model instance answered")
	}
}

// TestSharedFailureStaysWithItsModel: on a shared instance, a model whose
// static check fails on the skeleton answers forbidden, and one whose
// lowering fails answers its error, and neither touches the answers of
// the builtin models lowered after them, over the catalogue.
func TestSharedFailureStaysWithItsModel(t *testing.T) {
	probe := func(src string) *cat.Compiled {
		m, err := cat.Compile("\"probe\"\n" + src + " as probe\n")
		if err != nil {
			t.Fatal(err)
		}
		cm, err := m.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	staticFails, unlowerable := probe("empty po"), probe("reflexive po;rfe")
	allowed := 0
	for _, e := range catalog.Tests() {
		test := e.Test()
		prog, err := exec.Compile(test)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := bmc.EncodeShared(prog)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got, err := shared.DecideCat(staticFails); got || err != nil {
			t.Errorf("%s: a failing static check answered %v, %v", e.Name, got, err)
		}
		if _, err := shared.DecideCat(unlowerable); err == nil {
			t.Errorf("%s: an unlowerable model answered", e.Name)
		}
		for _, id := range strongestFirst {
			inst, err := bmc.Encode(test, id)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			want := inst.Solve()
			got, err := shared.Decide(id)
			if err != nil || got != want {
				t.Errorf("%s under %s: shared %v (%v), standalone %v", e.Name, id, got, err, want)
			}
			if want {
				allowed++
			}
		}
	}
	if allowed == 0 {
		t.Fatal("no catalogue test is allowed under any model: the check sees nothing")
	}
}
