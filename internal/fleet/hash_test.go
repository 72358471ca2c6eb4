package fleet

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestRendezvousDeterministicAndComplete: the ranking is a stable
// permutation of the backend set, independent of input order.
func TestRendezvousDeterministicAndComplete(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	ranked := rendezvous("key-1", names)
	if len(ranked) != len(names) {
		t.Fatalf("ranking has %d entries, want %d", len(ranked), len(names))
	}
	seen := map[string]bool{}
	for _, n := range ranked {
		seen[n] = true
	}
	if len(seen) != len(names) {
		t.Fatalf("ranking %v is not a permutation of %v", ranked, names)
	}
	again := rendezvous("key-1", []string{"http://c:1", "http://a:1", "http://b:1"})
	for i := range ranked {
		if ranked[i] != again[i] {
			t.Fatalf("ranking depends on input order: %v vs %v", ranked, again)
		}
	}
}

// TestRendezvousSpread: many keys spread across all backends — no
// backend is starved or monopolised.
func TestRendezvousSpread(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[rendezvous(fmt.Sprintf("key-%d", i), names)[0]]++
	}
	for _, n := range names {
		got := counts[n]
		// Fair share is 1000; allow a generous ±40% band.
		if got < 600 || got > 1400 {
			t.Errorf("backend %s owns %d/%d keys, want near %d", n, got, keys, keys/len(names))
		}
	}
}

// TestRendezvousStability is the property the verdict caches depend on:
// removing one backend moves ONLY the keys that lived on it; every other
// key keeps its home.
func TestRendezvousStability(t *testing.T) {
	full := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	without := []string{"http://a:1", "http://b:1", "http://d:1"} // c removed
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := rendezvous(key, full)[0]
		after := rendezvous(key, without)[0]
		if before == "http://c:1" {
			moved++
			continue // its home is gone; any new home is fine
		}
		if before != after {
			t.Fatalf("key %q moved from %s to %s though its home survived", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate spread: moved=%d kept=%d", moved, kept)
	}
}

// TestHomeBackendMatchesRanking: homeBackend's one allocation-free pass
// picks what a walk of rendezvous's ranking picks — its first backend
// whose breaker is closed, or its first when none is — over seeded keys,
// one to five backends and every combination of breaker states; and its
// inlined weight is hash/fnv's FNV-1a over key, a zero byte and name.
func TestHomeBackendMatchesRanking(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 1))
	states := []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen}
	for n := 1; n <= 5; n++ {
		g := &Gateway{backends: map[string]*gwBackend{}}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("http://10.0.%d.%d:%d", rng.IntN(4), rng.IntN(256), 8000+rng.IntN(1000))
			if g.backends[name] != nil {
				i--
				continue
			}
			g.backends[name] = &gwBackend{name: name, breaker: &Breaker{}}
			g.names = append(g.names, name)
		}
		sort.Strings(g.names)
		for _, name := range g.names {
			g.ordered = append(g.ordered, g.backends[name])
		}
		combos := 1
		for i := 0; i < n; i++ {
			combos *= len(states)
		}
		for combo := 0; combo < combos; combo++ {
			c := combo
			for _, b := range g.ordered {
				b.breaker.state = states[c%len(states)]
				c /= len(states)
			}
			for k := 0; k < 20; k++ {
				key := fmt.Sprintf("sha256:%016x%016x", rng.Uint64(), rng.Uint64())
				ranked := rendezvous(key, g.names)
				want := ranked[0]
				for _, name := range ranked {
					if g.backends[name].breaker.State() == BreakerClosed {
						want = name
						break
					}
				}
				if got := g.homeBackend(key); got != want {
					t.Fatalf("%d backends, combo %d, key %s: homeBackend %s, ranking picks %s (ranking %v)", n, combo, key, got, want, ranked)
				}
			}
		}
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("key-%d", rng.Uint64())
			for _, name := range g.names {
				h := fnv.New64a()
				h.Write([]byte(key))
				h.Write([]byte{0})
				h.Write([]byte(name))
				if got, want := fnvString(fnvString(fnvString(fnvOffset, key), "\x00"), name), h.Sum64(); got != want {
					t.Fatalf("key %q backend %s: inlined FNV-1a %#x, hash/fnv %#x", key, name, got, want)
				}
			}
		}
	}
}
