package events_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// dynRef is the reference dynamic derivation: the paper's definitions
// transcribed with the pure rel operators, one fresh relation per step.
func dynRef(x *events.Execution) map[events.Dyn]rel.Rel {
	rf := x.RF.Restrict(x.W, x.R)
	fr := rf.Inverse().Seq(x.CO)
	sw := rel.New(x.N())
	for _, p := range rf.Pairs() {
		if x.Events[p[0]].Order.Releases() && x.Events[p[1]].Order.Acquires() {
			sw.Add(p[0], p[1])
		}
	}
	return map[events.Dyn]rel.Rel{
		events.DynRF: rf, events.DynSW: sw, events.DynCO: x.CO, events.DynFR: fr,
		events.DynRFE: rf.Diff(x.IntraThread), events.DynRFI: rf.Inter(x.IntraThread),
		events.DynCOE: x.CO.Diff(x.IntraThread), events.DynCOI: x.CO.Inter(x.IntraThread),
		events.DynFRE: fr.Diff(x.IntraThread), events.DynFRI: fr.Inter(x.IntraThread),
		events.DynCom: x.CO.Union(rf).Union(fr),
	}
}

// dynField reads one dynamic relation off an execution.
func dynField(x *events.Execution, d events.Dyn) rel.Rel {
	switch d {
	case events.DynRF:
		return x.MemRF()
	case events.DynRFE:
		return x.RFE
	case events.DynRFI:
		return x.RFI
	case events.DynSW:
		return x.SW
	case events.DynCO:
		return x.CO
	case events.DynCOE:
		return x.COE
	case events.DynCOI:
		return x.COI
	case events.DynFR:
		return x.FR
	case events.DynFRE:
		return x.FRE
	case events.DynFRI:
		return x.FRI
	}
	return x.Com
}

var dynBits = []events.Dyn{
	events.DynRF, events.DynRFE, events.DynRFI, events.DynSW, events.DynCO, events.DynCOE,
	events.DynCOI, events.DynFR, events.DynFRE, events.DynFRI, events.DynCom,
}

// withPrereqs is the derivation contract's closure, written out here
// independently of the implementation: com and the fr splits need fr;
// fr, sw, com and the rf splits need rf.
func withPrereqs(d events.Dyn) events.Dyn {
	if d&(events.DynCom|events.DynFRE|events.DynFRI) != 0 {
		d |= events.DynFR
	}
	if d&(events.DynFR|events.DynSW|events.DynRFE|events.DynRFI|events.DynCom) != 0 {
		d |= events.DynRF
	}
	return d
}

// checkDemand fails unless every relation of d's closure in x equals the
// reference.
func checkDemand(t *testing.T, what string, x *events.Execution, d events.Dyn, want map[events.Dyn]rel.Rel) {
	t.Helper()
	for _, b := range dynBits {
		if withPrereqs(d)&b == 0 {
			continue
		}
		if got := dynField(x, b); !got.Equal(want[b]) {
			t.Fatalf("%s, demand %#x: relation %#x = %v, want %v", what, d, b, got, want[b])
		}
	}
}

// demandSkeletons returns derived skeletons of the catalogue, a seeded diy
// PPC sample and a C11 message-passing test whose release/acquire pair
// makes sw non-empty.
func demandSkeletons(t *testing.T) []*events.Skeleton {
	t.Helper()
	var tests []*litmus.Test
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Test())
	}
	diy.Sample(diy.PowerPool(), []int{3, 4}, 5, func(c diy.Cycle) bool {
		if test, err := diy.Generate(litmus.PPC, c); err == nil {
			tests = append(tests, litmus.MustParse(test.String()))
		}
		return len(tests) < 80
	})
	tests = append(tests, litmus.MustParse(`C mp-rel-acq
{ }
 P0 | P1 ;
 atomic_store_explicit(x, 1, relaxed) | r1 = atomic_load_explicit(y, acquire) ;
 atomic_store_explicit(y, 1, release) | r2 = atomic_load_explicit(x, relaxed) ;
exists (1:r1=1 /\ 1:r2=0)`))
	var out []*events.Skeleton
	for _, test := range tests {
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		traces := make([]exec.Trace, len(p.Threads))
		for tid := range traces {
			ts, err := p.ThreadTraces(tid)
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			traces[tid] = ts[len(ts)-1] // reads take non-initial values
		}
		asm, err := p.Assemble(traces)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		out = append(out, asm.X)
	}
	return out
}

// randomCandidate fills a candidate of skeleton base with random rf and co
// pairs: not only enumerable ones, so a read may have several sources or
// none, co need not be an order, and rf may touch non-memory events.
func randomCandidate(rng *rand.Rand, base *events.Skeleton) *events.Execution {
	n := base.N()
	x := &events.Execution{Skeleton: base, RF: rel.New(n), CO: rel.New(n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := base.Events[i], base.Events[j]
			sameLoc := a.IsMem() && b.IsMem() && a.Loc == b.Loc
			if sameLoc && a.Kind == events.MemWrite && b.Kind == events.MemRead && rng.Intn(3) == 0 {
				x.RF.Add(i, j)
			}
			if sameLoc && a.Kind == events.MemWrite && b.Kind == events.MemWrite && i != j && rng.Intn(2) == 0 {
				x.CO.Add(i, j)
			}
			if rng.Intn(40) == 0 {
				x.RF.Add(i, j) // noise the memory restriction must drop
			}
		}
	}
	x.AdoptStatic(base)
	return x
}

// TestDeriveDemandMatchesReference: over random candidates of many
// skeletons, deriving any demand mask yields, for each demanded relation
// and its prerequisites, the reference derivation — which is also what
// the full derivation yields. One execution is reused across the masks,
// re-adopting its skeleton between them, as an enumeration slot is.
func TestDeriveDemandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	swSeen := false
	for _, base := range demandSkeletons(t) {
		for trial := 0; trial < 2; trial++ {
			x := randomCandidate(rng, base)
			want := dynRef(x)
			swSeen = swSeen || !want[events.DynSW].IsEmpty()
			full := *x
			full.DeriveDynamic()
			checkDemand(t, "full derivation", &full, events.DynAll, want)
			for d := events.Dyn(0); d <= events.DynAll; d++ {
				x.AdoptStatic(base)
				x.DeriveDemand(d)
				checkDemand(t, "demand", x, d, want)
			}
		}
	}
	if !swSeen {
		t.Error("no candidate had a non-empty sw: the corpus does not exercise it")
	}
}

// TestDeriveDemandSlotReuse: an enumeration slot derives one demand for a
// candidate, is refilled with a different rf and co, and derives another.
// Nothing derived for the first candidate may survive into the second: at
// the Execution level (refill, AdoptStatic, derive), and through a
// deferred exec search whose consecutive candidates demand different
// masks, checked against a fully derived search of the same program.
func TestDeriveDemandSlotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	masks := []events.Dyn{events.DynAll, events.DynCO, events.DynRF | events.DynCO}
	for _, b := range dynBits {
		masks = append(masks, b)
	}
	for k := 0; k < 8; k++ {
		masks = append(masks, events.Dyn(rng.Intn(int(events.DynAll)+1)))
	}
	for _, base := range demandSkeletons(t) {
		first, second := randomCandidate(rng, base), randomCandidate(rng, base)
		want := dynRef(second)
		for _, a := range masks {
			for _, b := range masks {
				slot := *first
				slot.RF, slot.CO = first.RF.Clone(), first.CO.Clone()
				slot.DeriveDemand(a)
				slot.RF.CopyFrom(second.RF)
				slot.CO.CopyFrom(second.CO)
				slot.AdoptStatic(base)
				slot.DeriveDemand(b)
				checkDemand(t, fmt.Sprintf("after demand %#x on another candidate", a), &slot, b, want)
			}
		}
	}

	for _, name := range []string{"2+2w+lwsyncs", "iriw+lwsyncs", "mp+lwsync+addr-bigdetour-addr", "coRSDWI"} {
		e, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("catalogue has no %s", name)
		}
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatal(err)
		}
		var fulls []*exec.Candidate
		if err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			fulls = append(fulls, c.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		i := 0
		err = p.Search(context.Background(), exec.Request{Deferred: true}, func(c *exec.Candidate) bool {
			d := masks[i%len(masks)]
			c.X.DeriveDemand(d)
			checkDemand(t, fmt.Sprintf("%s candidate %d", name, i), c.X, d, dynRef(fulls[i].X))
			if i%5 == 0 { // a partly derived candidate clones fully derived
				checkDemand(t, fmt.Sprintf("%s clone %d", name, i), c.Clone().X, events.DynAll, dynRef(fulls[i].X))
			}
			i++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(fulls) {
			t.Fatalf("%s: deferred search yielded %d candidates, full %d", name, i, len(fulls))
		}
	}
}
