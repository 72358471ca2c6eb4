package fleet

import (
	"hash/fnv"
	"sort"
)

// rendezvous ranks backend names for a key by highest-random-weight
// (rendezvous) hashing: every (key, backend) pair gets an independent
// pseudo-random weight, and the backends are returned in descending
// weight order. The first entry is the key's home; the rest are its
// deterministic failover sequence. Rendezvous hashing keeps the mapping
// stable under membership change — removing one backend reroutes only
// the keys that lived on it — which is what keeps each backend's verdict
// cache hot across fleet reconfigurations.
func rendezvous(key string, names []string) []string {
	type scored struct {
		name   string
		weight uint64
	}
	ranked := make([]scored, len(names))
	for i, name := range names {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0}) // keep "ab"+"c" distinct from "a"+"bc"
		h.Write([]byte(name))
		// FNV avalanches poorly for near-identical inputs (backend names
		// differ in a byte or two), which visibly skews the spread; a
		// splitmix64-style finaliser fixes the high bits the sort uses.
		ranked[i] = scored{name: name, weight: mix64(h.Sum64())}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].weight != ranked[j].weight {
			return ranked[i].weight > ranked[j].weight
		}
		return ranked[i].name < ranked[j].name // total order even on hash ties
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.name
	}
	return out
}

// FNV-1a's 64-bit parameters, as hash/fnv uses them.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString continues an FNV-1a hash in state h over s: what
// hash/fnv's New64a computes after writing s, without the []byte.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// mix64 is the splitmix64 finaliser: a cheap bijection whose output bits
// all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
