package rel

// Differential tests for the destructive kernels against the map-based
// naiveRel reference of rel_test.go, and unit tests for the Arena pool.
// The pure operators are thin wrappers over these kernels, so only an
// independent reference can catch a kernel bug; the compiled cat
// evaluator, the models zoo and the crosscheck deciders all run on them.
// The sizes straddle the word boundaries, so both the one-word fast path
// and the multi-word path are exercised.

import (
	"math/rand"
	"testing"
)

// wordBoundarySizes are the universe sizes every kernel differential runs
// at: empty, tiny, either side of one and two 64-bit words.
var wordBoundarySizes = []int{0, 1, 2, 33, 63, 64, 65, 127, 128, 129}

// naiveOf is the reference relation {(i,j) ∈ n×n | keep(i,j)}.
func naiveOf(n int, keep func(i, j int) bool) naiveRel {
	out := naiveRel{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if keep(i, j) {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

// checkKernelsNaive runs every in-place kernel on copies of a and b and
// compares the result with the naive reference.
func checkKernelsNaive(t *testing.T, a, b Rel, src, dst Set) {
	t.Helper()
	n := a.N()
	an, bn := a.toNaive(), b.toNaive()
	check := func(name string, got Rel, want naiveRel) {
		t.Helper()
		if !equalNaive(got.toNaive(), want) {
			t.Fatalf("n=%d: %s diverges from the naive reference", n, name)
		}
	}
	inSrc, inDst := map[int]bool{}, map[int]bool{}
	for _, e := range src.Elems() {
		inSrc[e] = true
	}
	for _, e := range dst.Elems() {
		inDst[e] = true
	}

	d := New(n)
	d.CopyFrom(a)
	check("CopyFrom", d, an)

	d.Clear()
	check("Clear", d, naiveRel{})

	d.CopyFrom(a)
	d.UnionInto(b)
	check("UnionInto", d, naiveOf(n, func(i, j int) bool { return an[[2]int{i, j}] || bn[[2]int{i, j}] }))

	d.CopyFrom(a)
	d.InterInto(b)
	check("InterInto", d, naiveOf(n, func(i, j int) bool { return an[[2]int{i, j}] && bn[[2]int{i, j}] }))

	d.CopyFrom(a)
	d.DiffInto(b)
	check("DiffInto", d, naiveOf(n, func(i, j int) bool { return an[[2]int{i, j}] && !bn[[2]int{i, j}] }))

	d.CopyFrom(b) // pre-dirty: SeqInto must fully overwrite
	d.SeqInto(a, b)
	check("SeqInto", d, naiveSeq(an, bn))

	d.SeqInto(a, a)
	check("SeqInto aliased operands", d, naiveSeq(an, an))

	d.CopyFrom(b) // pre-dirty: InverseInto must fully overwrite
	d.InverseInto(a)
	check("InverseInto", d, naiveOf(n, func(i, j int) bool { return an[[2]int{j, i}] }))

	inv := d.Clone()
	d.CopyFrom(a) // pre-dirty: InvSeqInto must fully overwrite
	d.InvSeqInto(a, b)
	check("InvSeqInto", d, naiveSeq(inv.toNaive(), bn))

	// A chain over every other element, in descending order, added on
	// top of a's pairs.
	var chain []int
	for e := n - 1; e >= 0; e -= 2 {
		chain = append(chain, e)
	}
	d.CopyFrom(a)
	d.AddChain(chain)
	check("AddChain", d, naiveOf(n, func(i, j int) bool {
		return an[[2]int{i, j}] || i > j && i%2 == (n-1)%2 && j%2 == (n-1)%2
	}))

	plus := naivePlus(an)
	d.CopyFrom(a)
	d.PlusInPlace()
	check("PlusInPlace", d, plus)

	d.UnionIdentity()
	check("PlusInPlace+UnionIdentity", d, naiveOf(n, func(i, j int) bool { return i == j || plus[[2]int{i, j}] }))

	d.CopyFrom(a)
	d.ComplementInPlace()
	check("ComplementInPlace", d, naiveOf(n, func(i, j int) bool { return !an[[2]int{i, j}] }))

	d.CopyFrom(a)
	d.RestrictInPlace(src, dst)
	check("RestrictInPlace", d, naiveOf(n, func(i, j int) bool { return an[[2]int{i, j}] && inSrc[i] && inDst[j] }))

	reflexive := false
	for p := range an {
		reflexive = reflexive || p[0] == p[1]
	}
	if a.Irreflexive() == reflexive {
		t.Fatalf("n=%d: Irreflexive = %v, naive reference has a self-loop: %v", n, a.Irreflexive(), reflexive)
	}
	cyclic := false
	for p := range plus {
		cyclic = cyclic || p[0] == p[1]
	}
	var sc DFSScratch
	if a.AcyclicScratch(&sc) == cyclic {
		t.Fatalf("n=%d: AcyclicScratch = %v, naive closure has a self-loop: %v", n, a.AcyclicScratch(&sc), cyclic)
	}

	// Within2 is the four subset tests of the residual guard, fused.
	meet, join := a.Clone(), a.Clone()
	meet.InterInto(b)
	join.UnionInto(b)
	for k, c := range [][6]Rel{
		{a, meet, join, b, meet, join},
		{a, meet, join, b, a, join},
		{a, b, join, b, meet, join},
		{join, meet, a, b, meet, b},
	} {
		want := c[1].SubsetOf(c[0]) && c[0].SubsetOf(c[2]) && c[4].SubsetOf(c[3]) && c[3].SubsetOf(c[5])
		if got := Within2(c[0], c[1], c[2], c[3], c[4], c[5]); got != want {
			t.Fatalf("n=%d: Within2 case %d = %v, the subset tests say %v", n, k, got, want)
		}
	}
}

// boundaryShapes are relations over n elements that pin AcyclicScratch's
// one-word kernel, and the DFS past it, on the shapes that take either
// the most passes or the deepest stack: the longest chains, with edges up
// and down the universe, and the longest cycle; a dense total order, and
// the same with one back edge; and isolated elements beside a cycle
// through every third element.
func boundaryShapes(n int) []Rel {
	up, down, total := New(n), New(n), New(n)
	for i := 0; i+1 < n; i++ {
		up.Add(i, i+1)
		down.Add(i+1, i)
		for j := i + 1; j < n; j++ {
			total.Add(i, j)
		}
	}
	ring, back := up.Clone(), total.Clone()
	mixed := New(n)
	if n > 0 {
		ring.Add(n-1, 0)
		back.Add(n-1, 0)
		var on []int
		for i := n / 3; i < n; i += 3 {
			on = append(on, i)
		}
		for k := range on {
			mixed.Add(on[k], on[(k+1)%len(on)])
		}
	}
	return []Rel{up, down, ring, total, back, mixed}
}

// boundaryKernelSizes are the universe sizes the boundary shapes run at:
// one element, and either side of the one-word kernel's limit.
var boundaryKernelSizes = []int{1, 63, 64, 65}

// randSet returns a random subset of the universe, each element kept with
// probability one half.
func randSet(rng *rand.Rand, n int) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range wordBoundarySizes {
		// Sparse (acyclic-ish), around the percolation threshold, and dense.
		for _, density := range []float64{0.5 / float64(max(n, 1)), 2 / float64(max(n, 1)), 0.3} {
			for trial := 0; trial < 2; trial++ {
				a, b := randomRel(rng, n, density), randomRel(rng, n, density)
				checkKernelsNaive(t, a, b, randSet(rng, n), randSet(rng, n))
			}
		}
	}
	for _, n := range boundaryKernelSizes {
		shapes := boundaryShapes(n)
		for i, a := range shapes {
			checkKernelsNaive(t, a, shapes[(i+1)%len(shapes)], randSet(rng, n), randSet(rng, n))
		}
	}
}

// FuzzKernelsMatchNaive feeds fuzzer-chosen relations and sets to the same
// differential. The universe size is size mod 130, so the fuzzer reaches
// the one-, two- and three-word paths; pa and pb are byte pairs (i, j) and
// sets is a byte stream of (src, dst) membership choices.
func FuzzKernelsMatchNaive(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range wordBoundarySizes {
		pairs := func() []byte {
			buf := make([]byte, 2*(n+rng.Intn(2*n+1)))
			rng.Read(buf)
			return buf
		}
		sets := make([]byte, n)
		rng.Read(sets)
		f.Add(uint8(n), pairs(), pairs(), sets)
	}
	encode := func(r Rel) []byte {
		var buf []byte
		for _, p := range r.Pairs() {
			buf = append(buf, byte(p[0]), byte(p[1]))
		}
		return buf
	}
	for _, n := range boundaryKernelSizes {
		shapes := boundaryShapes(n)
		sets := make([]byte, n)
		rng.Read(sets)
		for i, a := range shapes {
			f.Add(uint8(n), encode(a), encode(shapes[(i+1)%len(shapes)]), sets)
		}
	}
	f.Fuzz(func(t *testing.T, size uint8, pa, pb, sets []byte) {
		n := int(size) % 130
		decode := func(enc []byte) Rel {
			r := New(n)
			for k := 0; n > 0 && k+1 < len(enc); k += 2 {
				r.Add(int(enc[k])%n, int(enc[k+1])%n)
			}
			return r
		}
		src, dst := NewSet(n), NewSet(n)
		for i := 0; i < n && i < len(sets); i++ {
			if sets[i]&1 != 0 {
				src.Add(i)
			}
			if sets[i]&2 != 0 {
				dst.Add(i)
			}
		}
		checkKernelsNaive(t, decode(pa), decode(pb), src, dst)
	})
}

func TestInverseIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InverseInto with aliased destination did not panic")
		}
	}()
	a := New(4)
	a.Add(0, 1)
	a.InverseInto(a)
}

func TestInvSeqIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InvSeqInto with aliased destination did not panic")
		}
	}()
	a := New(4)
	a.Add(0, 1)
	a.InvSeqInto(a, New(4))
}

func TestSeqIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SeqInto with aliased destination did not panic")
		}
	}()
	a := New(4)
	a.Add(0, 1)
	b := New(4)
	b.Add(1, 2)
	a.SeqInto(a, b)
}

func TestForEachPair(t *testing.T) {
	a := New(70) // spans two words per row
	pairs := [][2]int{{0, 0}, {0, 63}, {0, 64}, {3, 69}, {69, 0}}
	for _, p := range pairs {
		a.Add(p[0], p[1])
	}
	var got [][2]int
	a.ForEachPair(func(i, j int) { got = append(got, [2]int{i, j}) })
	if len(got) != len(pairs) {
		t.Fatalf("ForEachPair visited %d pairs, want %d", len(got), len(pairs))
	}
	for k, p := range pairs {
		if got[k] != p {
			t.Fatalf("pair %d: got %v, want %v", k, got[k], p)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	r1 := ar.Get(8)
	r1.Add(1, 2)
	ar.Put(r1)
	r2 := ar.Get(8)
	if !r2.IsEmpty() {
		t.Fatal("arena returned a dirty buffer")
	}
	// Same words, same backing array: the buffer really was recycled.
	r2.Add(3, 4)
	if r1.Has(3, 4) != true {
		t.Fatal("expected r1 and r2 to share backing after recycling")
	}
	// Size change drops the pool and serves fresh buffers.
	r3 := ar.Get(16)
	if r3.N() != 16 || !r3.IsEmpty() {
		t.Fatal("arena did not resize cleanly")
	}
	// Stale Put of a wrong-size buffer is dropped, not pooled.
	ar.Put(r2)
	r4 := ar.Get(16)
	if r4.N() != 16 {
		t.Fatal("arena pooled a wrong-size buffer")
	}
}

func TestArenaNilSafe(t *testing.T) {
	var ar *Arena
	r := ar.Get(4)
	if r.N() != 4 {
		t.Fatal("nil arena Get did not allocate")
	}
	ar.Put(r) // must not panic
	if ar.DFS() != nil {
		t.Fatal("nil arena DFS scratch should be nil")
	}
}

// TestAcyclicScratchMatchesAcyclic compares AcyclicScratch, the one-word
// kernel up to 64 elements and the DFS past it, with Acyclic, the DFS
// alone, over random relations of sizes either side of 64, sparse enough
// that both verdicts occur, and over the boundary shapes.
func TestAcyclicScratchMatchesAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc DFSScratch
	var rels []Rel
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(16)
		if trial%2 == 1 {
			n = 48 + rng.Intn(33) // 48..80
		}
		rels = append(rels, randomRel(rng, n, (0.25+1.5*rng.Float64())/float64(n)))
	}
	for _, n := range boundaryKernelSizes {
		rels = append(rels, boundaryShapes(n)...)
	}
	verdicts := map[bool]int{}
	for trial, r := range rels {
		acyclic := r.Acyclic()
		verdicts[acyclic]++
		if r.AcyclicScratch(&sc) != acyclic {
			t.Fatalf("trial %d (n=%d): AcyclicScratch diverges from Acyclic", trial, r.N())
		}
		w := r.CycleWitness()
		if (w == nil) != acyclic {
			t.Fatalf("trial %d: CycleWitness presence disagrees with Acyclic", trial)
		}
		for i := 0; i < len(w); i++ {
			if !r.Has(w[i], w[(i+1)%len(w)]) {
				t.Fatalf("trial %d: witness %v is not a cycle", trial, w)
			}
		}
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("verdicts %v: too few of one kind to compare", verdicts)
	}
}
