package events_test

import (
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/diy"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/rel"
)

// staticRef is the reference static derivation: the paper's definitions
// transcribed with the pure rel operators, one fresh relation per step,
// as DeriveStatic computed them before it moved onto the in-place kernels.
type staticRef struct {
	all, r, w, m, b, reg rel.Set
	memPO, poLoc, intra  rel.Rel
	addr, data, ctrl     rel.Rel
	ctrlCfence           map[events.FenceKind]rel.Rel
	fenceRel             map[events.FenceKind]rel.Rel
}

func deriveStaticRef(x *events.Skeleton) staticRef {
	n := x.N()
	s := staticRef{all: rel.FullSet(n), r: rel.NewSet(n), w: rel.NewSet(n), b: rel.NewSet(n), reg: rel.NewSet(n)}
	fenceEvents := map[events.FenceKind][]int{}
	tidSets := map[int]rel.Set{}
	for _, e := range x.Events {
		switch e.Kind {
		case events.MemRead:
			s.r.Add(e.ID)
		case events.MemWrite:
			s.w.Add(e.ID)
		case events.RegRead, events.RegWrite:
			s.reg.Add(e.ID)
		case events.Branch:
			s.b.Add(e.ID)
		case events.Fence:
			fenceEvents[e.Fence] = append(fenceEvents[e.Fence], e.ID)
		}
		if _, ok := tidSets[e.Tid]; !ok {
			tidSets[e.Tid] = rel.NewSet(n)
		}
		tidSets[e.Tid].Add(e.ID)
	}
	s.m = s.r.Union(s.w)
	s.memPO, s.poLoc = x.PO.Restrict(s.m, s.m), rel.New(n)
	for _, p := range s.memPO.Pairs() {
		if x.Events[p[0]].Loc == x.Events[p[1]].Loc {
			s.poLoc.Add(p[0], p[1])
		}
	}
	s.intra = rel.New(n)
	for _, t := range tidSets {
		s.intra = s.intra.Union(rel.Cross(t, t))
	}
	// Memory events on either side of a fence event, in program order.
	around := func(f int, before rel.Set) (rel.Set, rel.Set) {
		pre, post := rel.NewSet(n), rel.NewSet(n)
		for e := 0; e < n; e++ {
			if before.Has(e) && x.PO.Has(e, f) {
				pre.Add(e)
			}
			if s.m.Has(e) && x.PO.Has(f, e) {
				post.Add(e)
			}
		}
		return pre, post
	}
	s.fenceRel = map[events.FenceKind]rel.Rel{}
	for kind, fs := range fenceEvents {
		fr := rel.New(n)
		for _, f := range fs {
			fr = fr.Union(rel.Cross(around(f, s.m)))
		}
		s.fenceRel[kind] = fr
	}
	g := x.RFReg.Union(x.IICO)
	toReg := g.RestrictRange(s.reg)
	chains := toReg.Plus().Union(toReg)
	dd := g.Union(chains.Seq(g))
	s.addr = chains.Seq(x.IICOAddr).Restrict(s.r, s.m)
	s.data = chains.Seq(x.IICOData).Restrict(s.r, s.w)
	intoBranch := dd.Restrict(s.r, s.b)
	s.ctrl = intoBranch.Seq(x.PO).Restrict(s.r, s.m)
	s.ctrlCfence = map[events.FenceKind]rel.Rel{}
	for _, kind := range []events.FenceKind{events.FenceIsync, events.FenceISB} {
		out := rel.New(n)
		for _, f := range fenceEvents[kind] {
			out = out.Union(intoBranch.Seq(rel.Cross(around(f, s.b))))
		}
		s.ctrlCfence[kind] = out.Restrict(s.r, s.m)
	}
	return s
}

// TestDeriveStaticMatchesReference: over skeletons of the catalogue and a
// seeded diy PPC sample (fences, control fences, address and data
// dependencies, several dialects), DeriveStatic's in-place derivation
// equals the reference transcription, set by set and relation by relation.
func TestDeriveStaticMatchesReference(t *testing.T) {
	var tests []*litmus.Test
	for _, e := range catalog.Tests() {
		tests = append(tests, e.Test())
	}
	diy.Sample(diy.PowerPool(), []int{3, 4, 5}, 11, func(c diy.Cycle) bool {
		if test, err := diy.Generate(litmus.PPC, c); err == nil {
			tests = append(tests, litmus.MustParse(test.String()))
		}
		return len(tests) < 200
	})
	skeletons, nonEmpty := 0, map[string]int{}
	for _, test := range tests {
		p, err := exec.Compile(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		all := make([][]exec.Trace, len(p.Threads))
		for tid := range all {
			if all[tid], err = p.ThreadTraces(tid); err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
		}
		// The last trace of each thread with the first of the others:
		// every thread's read values vary across the skeletons checked.
		for pick := range p.Threads {
			traces := make([]exec.Trace, len(all))
			for tid, ts := range all {
				traces[tid] = ts[0]
				if tid == pick {
					traces[tid] = ts[len(ts)-1]
				}
			}
			asm, err := p.Assemble(traces) // derives
			if err != nil {
				t.Fatalf("%s: %v", test.Name, err)
			}
			x, want := asm.X, deriveStaticRef(asm.X)
			skeletons++
			for _, c := range []struct {
				name      string
				got, want rel.Set
			}{{"All", x.All, want.all}, {"R", x.R, want.r}, {"W", x.W, want.w}, {"M", x.M, want.m}, {"B", x.B, want.b}, {"RegEvents", x.RegEvents, want.reg}} {
				if !c.got.Equal(c.want) {
					t.Fatalf("%s: %s = %v, want %v", test.Name, c.name, c.got, c.want)
				}
			}
			rels := []struct {
				name      string
				got, want rel.Rel
			}{
				{"MemPO", x.MemPO, want.memPO}, {"POLoc", x.POLoc, want.poLoc}, {"IntraThread", x.IntraThread, want.intra},
				{"Addr", x.Addr, want.addr}, {"Data", x.Data, want.data}, {"Ctrl", x.Ctrl, want.ctrl},
			}
			for kind, r := range want.ctrlCfence {
				rels = append(rels, struct {
					name      string
					got, want rel.Rel
				}{"CtrlCfence " + string(kind), x.CtrlCfence[kind], r})
			}
			for kind, r := range want.fenceRel {
				rels = append(rels, struct {
					name      string
					got, want rel.Rel
				}{"FenceRel " + string(kind), x.Fences(kind), r})
			}
			for _, c := range rels {
				if !c.got.Equal(c.want) {
					t.Fatalf("%s: %s = %v, want %v", test.Name, c.name, c.got, c.want)
				}
				if !c.want.IsEmpty() {
					nonEmpty[c.name]++
				}
			}
			if len(x.FenceRel) != len(want.fenceRel) || len(x.CtrlCfence) != len(want.ctrlCfence) {
				t.Fatalf("%s: %d fence and %d ctrl+cfence flavours, want %d and %d", test.Name,
					len(x.FenceRel), len(x.CtrlCfence), len(want.fenceRel), len(want.ctrlCfence))
			}
		}
	}
	for _, name := range []string{"POLoc", "Addr", "Data", "Ctrl", "CtrlCfence isync", "CtrlCfence isb", "FenceRel sync", "FenceRel lwsync"} {
		if nonEmpty[name] == 0 {
			t.Errorf("%s is empty on every skeleton: the corpus does not exercise it", name)
		}
	}
	t.Logf("%d skeletons of %d tests; non-empty: %v", skeletons, len(tests), nonEmpty)
}
