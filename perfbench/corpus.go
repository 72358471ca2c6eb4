package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"herdcats/internal/diy"
	"herdcats/internal/litmus"
)

// lightSizes are the diy cycle lengths of the cold-light and
// warm-gw-batch corpora: small PPC tests whose per-test fixed costs
// (parse, compile, skeleton binding, HTTP) dominate their few candidates.
var lightSizes = []int{3, 4, 5}

// lightCorpus draws n distinct PPC tests from the seeded diy sampler and
// renders each in canonical litmus syntax — the bytes a client sends. It
// also returns the time diy.Generate took per test, in microseconds.
func lightCorpus(seed uint64, n int) (srcs []string, genUS []float64, err error) {
	seen := map[string]bool{}
	diy.Sample(diy.PowerPool(), lightSizes, seed, func(c diy.Cycle) bool {
		t0 := time.Now()
		t, gerr := diy.Generate(litmus.PPC, c)
		d := time.Since(t0)
		if gerr != nil {
			return true // a cycle diy cannot lay out; draw another
		}
		src := t.String()
		if seen[src] {
			return true
		}
		seen[src] = true
		srcs = append(srcs, src)
		genUS = append(genUS, us(d))
		return len(srcs) < n
	})
	if len(srcs) < n {
		return nil, nil, fmt.Errorf("light corpus: sampler exhausted after %d of %d tests", len(srcs), n)
	}
	return srcs, genUS, nil
}

// heavySrc renders the cold-heavy shape: four threads each store their own
// constant to x and to y, separated by an lwsync. Every location collects
// four writes, so the candidate space is the coherence product 4!·4! = 576,
// and propagation rejects part of it. Requests differ only in
// the stored constants, so every one misses the verdict cache at exactly
// the same cost.
func heavySrc(base int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PPC heavy%d\n", base)
	b.WriteString("{ 0:r1=x; 0:r2=y; 1:r1=x; 1:r2=y; 2:r1=x; 2:r2=y; 3:r1=x; 3:r2=y; }\n")
	b.WriteString(" P0 | P1 | P2 | P3 ;\n")
	for t := 0; t < 4; t++ {
		if t > 0 {
			b.WriteString(" |")
		}
		fmt.Fprintf(&b, " li r4,%d", base+t)
	}
	b.WriteString(" ;\n")
	// Threads 0 and 2 store x then y, threads 1 and 3 y then x: the
	// 2+2W cycles between them are what the lwsyncs forbid.
	for _, row := range [][2]string{{"stw r4,0(r1)", "stw r4,0(r2)"}, {"lwsync", "lwsync"}, {"stw r4,0(r2)", "stw r4,0(r1)"}} {
		b.WriteString(" " + row[0] + " | " + row[1] + " | " + row[0] + " | " + row[1] + " ;\n")
	}
	fmt.Fprintf(&b, "exists (x=%d /\\ y=%d)\n", base, base+1)
	return b.String()
}

// heavyCorpus returns n cold-heavy tests with seeded, pairwise distinct
// six-digit constants (so rendering cost is uniform too).
func heavyCorpus(seed uint64, n int) []string {
	rng := rand.New(rand.NewPCG(seed, 0x6865617679))
	const slots = 200000
	if n > slots {
		n = slots
	}
	perm := rng.Perm(slots)
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = heavySrc(100000 + 4*perm[i])
	}
	return srcs
}

// batchPlan draws nBatches batches of size rows each, every batch a seeded
// selection of distinct tests from a corpus of corpusLen tests.
func batchPlan(seed uint64, corpusLen, nBatches, size int) [][]int {
	rng := rand.New(rand.NewPCG(seed, 0x62617463))
	plan := make([][]int, nBatches)
	for i := range plan {
		plan[i] = rng.Perm(corpusLen)[:size]
	}
	return plan
}

// corpusHash is the SHA-256 over the length-prefixed sources, so two
// corpora hash equal exactly when they are byte-identical.
func corpusHash(srcs []string) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range srcs {
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
