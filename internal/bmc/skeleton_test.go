package bmc_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/hardware"
	"herdcats/internal/machine"
	"herdcats/internal/models"
	"herdcats/internal/multi"
	"herdcats/internal/rel"
)

// skeletonKey renders everything a skeleton holds: its events, base
// relations, sets, static relations and fence maps.
func skeletonKey(s *events.Skeleton) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#v\n", s.Events)
	for _, r := range [...]any{s.PO, s.IICO, s.IICOAddr, s.IICOData, s.RFReg,
		s.All, s.R, s.W, s.M, s.B, s.RegEvents,
		s.MemPO, s.POLoc, s.IntraThread, s.Addr, s.Data, s.Ctrl, s.CtrlCfenceAll()} {
		fmt.Fprintf(&b, "%v\n", r)
	}
	for _, fm := range [...]map[events.FenceKind]rel.Rel{s.CtrlCfence, s.FenceRel} {
		kinds := make([]events.FenceKind, 0, len(fm))
		for k := range fm {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%s: %v\n", k, fm[k])
		}
	}
	return b.String()
}

// candidateJudges returns a judge per consumer of candidates: every builtin
// cat model, compiled and interpreted; the hand-written zoo; the
// operational machine over every builtin model that binds what it reads;
// and every simulated machine's observer. Each derives what it reads as
// its decider does, and its answer is dropped. release hands back what
// they borrowed.
func candidateJudges(t *testing.T, name string) (judges []func(*events.Execution), release func()) {
	t.Helper()
	var releases []func()
	checker := func(ck core.Checker) {
		if prov, ok := ck.(core.EvaluatorProvider); ok {
			ev := prov.NewEvaluator()
			ck = ev
			releases = append(releases, func() { core.Release(ev) })
		}
		judges = append(judges, func(x *events.Execution) {
			x.DeriveDemand(events.DynAll)
			ck.Check(x)
		})
	}
	machines := 0
	for _, n := range cat.BuiltinNames() {
		m := cat.MustBuiltin(n)
		checker(m)
		checker(m.Interpreted())
		md, err := machine.NewModel(m)
		if err != nil {
			continue // the model binds no ppo, fence, prop, hb or po-loc-sc
		}
		machines++
		releases = append(releases, md.Release)
		judges = append(judges, func(x *events.Execution) {
			x.DeriveDemand(events.DynAll)
			md.Accepts(x)
		})
	}
	if machines == 0 {
		t.Fatal("no builtin model runs the operational machine")
	}
	for _, m := range append(models.All(), models.PowerStatic, models.ARMStatic) {
		checker(m)
	}
	checker(models.C11)
	checker(multi.Model{})
	for _, hw := range hardware.Machines() {
		o := hw.Observer()
		releases = append(releases, o.Release)
		judges = append(judges, func(x *events.Execution) { o.Observes(x, name) })
	}
	return judges, func() {
		for _, r := range releases {
			r()
		}
	}
}

// TestJudgesLeaveSkeletonIntact: every candidate of a skeleton points at
// it, so a consumer that writes a static field through a candidate
// rewrites the skeleton for every later candidate, and for every shard
// worker. Over the catalogue, each program's deferred walk keys each
// skeleton at its first candidate, every judge judges every candidate,
// bmc's shared encoding decides every model on its assembled skeleton,
// and then every key must be unchanged. The program is shared, so its
// skeletons live until the end.
func TestJudgesLeaveSkeletonIntact(t *testing.T) {
	skeletons, candidates := 0, 0
	for _, e := range catalog.Tests() {
		test := e.Test()
		p, err := exec.CompileShared(test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		judges, releaseJudges := candidateJudges(t, test.Name)
		var seen []*events.Skeleton
		var keys []string
		err = p.Search(context.Background(), exec.Request{Deferred: true}, func(c *exec.Candidate) bool {
			if !slices.Contains(seen, c.X.Skeleton) {
				seen = append(seen, c.X.Skeleton)
				keys = append(keys, skeletonKey(c.X.Skeleton))
			}
			for _, j := range judges {
				j(c.X)
			}
			candidates++
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		releaseJudges()

		inst, err := bmc.EncodeShared(p)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		asm := inst.Skeleton()
		asmKey := skeletonKey(asm)
		for _, id := range []bmc.ModelID{bmc.SC, bmc.TSO, bmc.Power, bmc.ARM, bmc.PowerCAV} {
			if _, err := inst.Decide(id); err != nil {
				t.Fatalf("%s: %v: %v", test.Name, id, err)
			}
		}
		if got := skeletonKey(asm); got != asmKey {
			t.Errorf("%s: bmc changed its assembled skeleton:\n%s\nwas:\n%s", test.Name, got, asmKey)
		}
		inst.Release()
		for i, s := range seen {
			if got := skeletonKey(s); got != keys[i] {
				t.Errorf("%s: skeleton %d changed while judged:\n%s\nwas:\n%s", test.Name, i, got, keys[i])
			}
		}
		skeletons += len(seen)
		p.Release()
	}
	t.Logf("%d skeletons, %d candidates", skeletons, candidates)
}
