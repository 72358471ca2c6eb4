package exec_test

// Tests for the zero-copy yield contract: candidates are backed by the
// search's reusable arena slot, Clone produces standalone copies whose
// content is identical to the in-place view, and a candidate retained past
// its yield without cloning is detectably stale (Expired), never silently
// corrupt-but-plausible.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"herdcats/internal/catalog"
	"herdcats/internal/exec"
)

// dynFingerprint renders a candidate including every derived dynamic
// relation, so a clone that shares (or mis-copies) any buffer with the
// arena slot diverges from the in-place rendering.
func dynFingerprint(c *exec.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state{%s}", c.State.Key(nil))
	fmt.Fprintf(&b, " rf=%v co=%v fr=%v com=%v sw=%v", c.X.RF.Pairs(), c.X.CO.Pairs(),
		c.X.FR.Pairs(), c.X.Com.Pairs(), c.X.SW.Pairs())
	fmt.Fprintf(&b, " rfe=%v rfi=%v coe=%v coi=%v fre=%v fri=%v",
		c.X.RFE.Pairs(), c.X.RFI.Pairs(), c.X.COE.Pairs(), c.X.COI.Pairs(),
		c.X.FRE.Pairs(), c.X.FRI.Pairs())
	return b.String()
}

// TestCloneMatchesInPlace: over the whole catalog, cloning every candidate
// at yield time and reading the clones after the search reproduces exactly
// the in-place per-candidate view — even though the arena slot behind the
// originals has been overwritten thousands of times since.
func TestCloneMatchesInPlace(t *testing.T) {
	for _, e := range catalog.Tests() {
		p, err := exec.Compile(e.Test())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var inPlace []string
		var clones []*exec.Candidate
		err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			inPlace = append(inPlace, dynFingerprint(c))
			clones = append(clones, c.Clone())
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(clones) == 0 {
			t.Fatalf("%s: no candidates", e.Name)
		}
		for i, c := range clones {
			if c.Expired() {
				t.Fatalf("%s: clone %d reports Expired; clones must be standalone", e.Name, i)
			}
			if got := dynFingerprint(c); got != inPlace[i] {
				t.Errorf("%s: candidate %d: clone diverges from in-place view\nin-place %s\nclone    %s",
					e.Name, i, inPlace[i], got)
			}
		}
	}
}

// TestRetainedCandidateExpires is the lifetime-violation detector: the slot
// generation advances at every refill, so holding the yielded pointer past
// its yield is observable instead of silently reading the next candidate's
// data.
func TestRetainedCandidateExpires(t *testing.T) {
	p := compile(t, mpSrc)
	var first, firstClone *exec.Candidate
	n := 0
	err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		if c.Expired() {
			t.Error("live candidate reports Expired during its own yield")
		}
		if n == 0 {
			first = c
			firstClone = c.Clone()
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("mp enumerated %d candidates; the expiry check needs at least 2", n)
	}
	if !first.Expired() {
		t.Error("candidate retained without Clone should report Expired once the slot moved on")
	}
	if firstClone.Expired() {
		t.Error("cloned candidate must never expire")
	}
}

// TestShardYieldZeroCopy: the partitioned search hands each shard's
// candidates to its consumer zero-copy, out of the shard's own arena slot,
// on the worker walking it — no candidate is cloned to cross a goroutine.
// A live candidate is never Expired during its yield; one retained past
// it expires as soon as its shard yields the next.
func TestShardYieldZeroCopy(t *testing.T) {
	p := compile(t, smallPathologicalSrc(t))
	type shardView struct {
		first          *exec.Candidate
		n              int
		expiredInYield bool
	}
	parts, err := exec.SearchShards(context.Background(), p, exec.Request{Workers: 4}, func() func(exec.Walk) shardView {
		return func(walk exec.Walk) shardView {
			var v shardView
			walk(func(c *exec.Candidate) bool {
				v.expiredInYield = v.expiredInYield || c.Expired()
				if v.n == 0 {
					v.first = c
				}
				v.n++
				return true
			})
			return v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("%d shard(s); the check needs a real partition", len(parts))
	}
	multi := false
	for i, v := range parts {
		if v.expiredInYield {
			t.Errorf("shard %d: a live candidate reported Expired during its own yield", i)
		}
		if v.n >= 2 {
			multi = true
			if !v.first.Expired() {
				t.Errorf("shard %d: a candidate retained past its yield is not Expired: it was copied, not yielded in place", i)
			}
		}
	}
	if !multi {
		t.Fatal("no shard yielded two candidates; the expiry check never ran")
	}
}

// TestFinishedSearchSlotRefuses: a finished search puts its candidate
// slot back for the next search to reuse, so a candidate retained past
// the search is Expired even when it was the last one yielded, and
// Clone of it panics instead of copying the next search's candidate.
func TestFinishedSearchSlotRefuses(t *testing.T) {
	p := compile(t, mpSrc)
	var last *exec.Candidate
	for range 2 { // the second search may take the first one's slot
		err := p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
			last = c
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !last.Expired() {
			t.Fatal("the last candidate of a finished search is not Expired")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Clone of a candidate of a finished search did not panic")
				}
			}()
			last.Clone()
		}()
	}
}
