package multi_test

import (
	"context"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/multi"
	"herdcats/internal/rel"
	"herdcats/internal/sim"
)

// TestAgreesWithPowerExceptBigdetour reproduces the Sec. 8.2 comparison
// with the CAV 2012 model: experimentally equivalent to our Power model on
// the corpus, "except for a few tests of similar structure" to Fig. 37 —
// which the multi-event model forbids and ours allows.
func TestAgreesWithPowerExceptBigdetour(t *testing.T) {
	for _, e := range catalog.Tests() {
		if _, isPowerTest := e.Expect["Power"]; !isPowerTest {
			continue
		}
		powerOut, err := sim.Simulate(context.Background(), sim.Request{Test: e.Test(), Checker: models.Power})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		multiOut, err := sim.Simulate(context.Background(), sim.Request{Test: e.Test(), Checker: multi.Model{}})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.Name == "mp+lwsync+addr-bigdetour-addr" {
			if !powerOut.Allowed() || multiOut.Allowed() {
				t.Errorf("Fig. 37: want Power allowed / CAV12 forbidden, got %v / %v",
					powerOut.Allowed(), multiOut.Allowed())
			}
			continue
		}
		if powerOut.Allowed() != multiOut.Allowed() {
			t.Errorf("%s: Power allowed=%v, multi-event allowed=%v",
				e.Name, powerOut.Allowed(), multiOut.Allowed())
		}
	}
}

// TestMultiStrongerThanPower: the multi-event model only ever forbids more
// (its ppo is a superset), checked per candidate execution.
func TestMultiStrongerThanPower(t *testing.T) {
	m := multi.Model{}
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			if m.Check(c.X).Valid && !models.Power.Check(c.X).Valid {
				t.Errorf("%s: candidate valid under multi-event but not Power", e.Name)
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpandShape checks the event expansion arithmetic: one subevent per
// (write, thread).
func TestExpandShape(t *testing.T) {
	e, _ := catalog.ByName("iriw")
	p, err := exec.Compile(e.Test())
	if err != nil {
		t.Fatal(err)
	}
	err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		ex, err := multi.Expand(c.X)
		if err != nil {
			t.Fatal(err)
		}
		writes := c.X.W.Card()  // includes the two initial writes
		wantExtra := writes * 4 // iriw has four threads
		if ex.N != c.X.N()+wantExtra {
			t.Errorf("expanded N = %d, want %d + %d", ex.N, c.X.N(), wantExtra)
		}
		if len(ex.PropEvent) != wantExtra {
			t.Errorf("PropEvent count = %d, want %d", len(ex.PropEvent), wantExtra)
		}
		return false // one candidate suffices
	})
	if err != nil {
		t.Fatal(err)
	}
}

// referenceExpand is Expand with Power's Fig. 25 seeds spelt out in pure
// operators over the expanded universe, every relation lifted pair by
// pair: the transcription Expand replaced by lifting models.PowerSeeds.
func referenceExpand(x *events.Execution) (*multi.Expanded, error) {
	threads := map[int]int{}
	for _, e := range x.Events {
		if e.Tid != events.InitTid {
			if _, ok := threads[e.Tid]; !ok {
				threads[e.Tid] = len(threads)
			}
		}
	}
	nThreads := len(threads)
	writes := x.W.Elems()
	n := x.N() + len(writes)*nThreads
	ex := &multi.Expanded{N: n, PropEvent: map[[2]int]int{}}
	next := x.N()
	for _, w := range writes {
		for ti := 0; ti < nThreads; ti++ {
			ex.PropEvent[[2]int{w, ti}] = next
			next++
		}
	}
	lift := func(r rel.Rel) rel.Rel {
		out := rel.New(n)
		for _, p := range r.Pairs() {
			out.Add(p[0], p[1])
		}
		return out
	}
	structural := rel.New(n)
	for _, w := range writes {
		for ti := 0; ti < nThreads; ti++ {
			structural.Add(w, ex.PropEvent[[2]int{w, ti}])
		}
	}
	for _, p := range x.CO.Pairs() {
		for ti := 0; ti < nThreads; ti++ {
			structural.Add(ex.PropEvent[[2]int{p[0], ti}], ex.PropEvent[[2]int{p[1], ti}])
		}
	}
	for _, p := range x.RFE.Pairs() {
		ti := threads[x.Events[p[1]].Tid]
		structural.Add(ex.PropEvent[[2]int{p[0], ti}], p[1])
	}

	dp := lift(x.Addr.Union(x.Data))
	rdw := lift(x.POLoc.Inter(x.FRE.Seq(x.RFE)))
	detour := lift(x.POLoc.Inter(x.COE.Seq(x.RFE)))
	ctrlCfence := rel.New(n)
	if cf, ok := x.CtrlCfence[events.FenceIsync]; ok && cf.N() == x.N() {
		ctrlCfence = lift(cf)
	}
	rfiE := lift(x.RFI).Union(structural)
	ii0 := dp.Union(rdw).Union(rfiE)
	ci0 := ctrlCfence.Union(detour)
	poME := lift(x.PO.Restrict(x.M, x.M))
	cc0 := dp.Union(lift(x.POLoc)).Union(lift(x.Ctrl)).Union(lift(x.Addr).Seq(poME))
	ppoE, ic, err := models.PPOFixpoint(ii0, ci0, cc0, nil)
	if err != nil {
		return nil, err
	}
	ppoE.UnionInto(ic)

	fencesE := lift(models.Power.Arch.Fences(x, nil))
	ffenceE := lift(x.Fences(events.FenceSync))
	rfeE := lift(x.RFE).Union(structural)
	hbE := ppoE.Union(fencesE).Union(rfeE)
	propBaseE := fencesE.Union(rfeE.Seq(fencesE)).Seq(hbE.Star())
	comE := lift(x.Com).Union(structural)
	propE := propBaseE.Union(comE.Star().Seq(propBaseE.Star()).Seq(ffenceE).Seq(hbE.Star()))

	ex.POLocCom = lift(x.POLoc.Union(x.Com)).Union(structural)
	ex.HB = hbE
	ex.Obs = lift(x.FRE).Seq(propE).Seq(hbE.Star())
	ex.CoProp = lift(x.CO).Union(structural).Union(propE)
	return ex, nil
}

// TestExpandMatchesReference pins Expand, which lifts Power's seeds from
// models.PowerSeeds, to referenceExpand's pure-operator seeds: the four
// expanded axiom bodies must agree pair for pair on every candidate of
// the catalogue's tests and of a seeded diy PPC corpus.
func TestExpandMatchesReference(t *testing.T) {
	var tests []*litmus.Test
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Test())
	}
	diyTests := 0
	seen := map[string]bool{}
	emit := func(c diy.Cycle) bool {
		test, err := diy.Generate(litmus.PPC, c)
		if err != nil || seen[test.Name] {
			return true
		}
		seen[test.Name] = true
		tests = append(tests, test)
		diyTests++
		return diyTests < 300
	}
	diy.Enumerate(diy.PowerPool(), 2, 2, emit)
	diy.Sample(diy.PowerPool(), []int{4, 5}, 1, emit)
	if diyTests < 300 {
		t.Fatalf("diy corpus: %d tests, want 300", diyTests)
	}
	candidates := 0
	for _, test := range tests {
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			candidates++
			got, err := multi.Expand(c.X)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			want, err := referenceExpand(c.X)
			if err != nil {
				t.Fatalf("%s: reference: %v", test.Name, err)
			}
			for _, r := range []struct {
				name      string
				got, want rel.Rel
			}{
				{"POLocCom", got.POLocCom, want.POLocCom},
				{"HB", got.HB, want.HB},
				{"Obs", got.Obs, want.Obs},
				{"CoProp", got.CoProp, want.CoProp},
			} {
				if !r.got.Equal(r.want) {
					t.Errorf("%s: expanded %s differs from the reference:\ngot  %v\nwant %v",
						test.Name, r.name, r.got.Pairs(), r.want.Pairs())
					return false
				}
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
	}
	t.Logf("%d tests, %d candidates", len(tests), candidates)
}
