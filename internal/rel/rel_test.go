package rel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	r := New(70) // spans two words
	pairs := [][2]int{{0, 0}, {0, 69}, {69, 0}, {63, 64}, {64, 63}, {31, 32}}
	for _, p := range pairs {
		if r.Has(p[0], p[1]) {
			t.Fatalf("fresh relation has (%d,%d)", p[0], p[1])
		}
		r.Add(p[0], p[1])
		if !r.Has(p[0], p[1]) {
			t.Fatalf("Add(%d,%d) not visible", p[0], p[1])
		}
	}
	if got := r.Card(); got != len(pairs) {
		t.Fatalf("Card = %d, want %d", got, len(pairs))
	}
	r.Remove(0, 69)
	if r.Has(0, 69) {
		t.Fatal("Remove(0,69) did not remove")
	}
}

// TestNewNIndependent: the relations NewN carves from one allocation are
// empty, sized, and share no bits — filling one leaves its neighbours
// empty, at one word per row and at several.
func TestNewNIndependent(t *testing.T) {
	for _, n := range []int{0, 5, 64, 65} {
		rs := NewN(n, 3)
		if len(rs) != 3 {
			t.Fatalf("n=%d: %d relations, want 3", n, len(rs))
		}
		for _, r := range rs {
			if r.N() != n || !r.IsEmpty() {
				t.Fatalf("n=%d: got universe %d, empty %v", n, r.N(), r.IsEmpty())
			}
		}
		rs[1].CopyFrom(Full(n))
		if !rs[0].IsEmpty() || !rs[2].IsEmpty() || !rs[1].Equal(Full(n)) {
			t.Fatalf("n=%d: filling one relation changed its neighbours", n)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-universe Add")
		}
	}()
	New(3).Add(0, 3)
}

func TestUnionInterDiff(t *testing.T) {
	a := FromPairs(5, [][2]int{{0, 1}, {1, 2}})
	b := FromPairs(5, [][2]int{{1, 2}, {2, 3}})
	if got := a.Union(b).Pairs(); !reflect.DeepEqual(got, [][2]int{{0, 1}, {1, 2}, {2, 3}}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Inter(b).Pairs(); !reflect.DeepEqual(got, [][2]int{{1, 2}}) {
		t.Errorf("Inter = %v", got)
	}
	if got := a.Diff(b).Pairs(); !reflect.DeepEqual(got, [][2]int{{0, 1}}) {
		t.Errorf("Diff = %v", got)
	}
}

func TestSeq(t *testing.T) {
	// r = {(0,1),(1,2)}, s = {(1,3),(2,4)}; r;s = {(0,3),(1,4)}
	r := FromPairs(5, [][2]int{{0, 1}, {1, 2}})
	s := FromPairs(5, [][2]int{{1, 3}, {2, 4}})
	want := [][2]int{{0, 3}, {1, 4}}
	if got := r.Seq(s).Pairs(); !reflect.DeepEqual(got, want) {
		t.Errorf("Seq = %v, want %v", got, want)
	}
}

func TestSeqEmpty(t *testing.T) {
	r := FromPairs(4, [][2]int{{0, 1}})
	if !r.Seq(New(4)).IsEmpty() || !New(4).Seq(r).IsEmpty() {
		t.Error("composition with empty relation should be empty")
	}
}

func TestPlusStar(t *testing.T) {
	r := FromPairs(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	plus := r.Plus()
	wantPlus := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if got := plus.Pairs(); !reflect.DeepEqual(got, wantPlus) {
		t.Errorf("Plus = %v, want %v", got, wantPlus)
	}
	star := r.Star()
	for i := 0; i < 4; i++ {
		if !star.Has(i, i) {
			t.Errorf("Star missing (%d,%d)", i, i)
		}
	}
	if star.Card() != len(wantPlus)+4 {
		t.Errorf("Star card = %d", star.Card())
	}
}

func TestPlusCycle(t *testing.T) {
	r := FromPairs(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	plus := r.Plus()
	if !plus.Has(0, 0) || !plus.Has(1, 1) || !plus.Has(2, 2) {
		t.Error("closure of a cycle must be reflexive on the cycle")
	}
}

func TestInverse(t *testing.T) {
	r := FromPairs(66, [][2]int{{0, 65}, {65, 1}, {2, 2}})
	inv := r.Inverse()
	want := FromPairs(66, [][2]int{{65, 0}, {1, 65}, {2, 2}})
	if !inv.Equal(want) {
		t.Errorf("Inverse = %v, want %v", inv, want)
	}
	if !inv.Inverse().Equal(r) {
		t.Error("double inverse differs from original")
	}
}

func TestAcyclic(t *testing.T) {
	cases := []struct {
		name  string
		pairs [][2]int
		want  bool
	}{
		{"empty", nil, true},
		{"chain", [][2]int{{0, 1}, {1, 2}}, true},
		{"self-loop", [][2]int{{1, 1}}, false},
		{"2-cycle", [][2]int{{0, 1}, {1, 0}}, false},
		{"long-cycle", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, false},
		{"diamond", [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, true},
		{"disconnected-cycle", [][2]int{{0, 1}, {2, 3}, {3, 2}}, false},
	}
	for _, c := range cases {
		r := FromPairs(4, c.pairs)
		if got := r.Acyclic(); got != c.want {
			t.Errorf("%s: Acyclic = %v, want %v", c.name, got, c.want)
		}
		// Acyclic must agree with irreflexivity of the closure.
		if got := r.Plus().Irreflexive(); got != c.want {
			t.Errorf("%s: Plus().Irreflexive() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIrreflexiveReflexive(t *testing.T) {
	r := FromPairs(3, [][2]int{{0, 1}})
	if !r.Irreflexive() || r.Reflexive() {
		t.Error("irreflexivity misjudged")
	}
	r.Add(2, 2)
	if r.Irreflexive() || !r.Reflexive() {
		t.Error("reflexive pair not detected")
	}
}

func TestRestrict(t *testing.T) {
	r := Full(4)
	src := SetOf(4, 0, 1)
	dst := SetOf(4, 2, 3)
	got := r.Restrict(src, dst)
	want := FromPairs(4, [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if !got.Equal(want) {
		t.Errorf("Restrict = %v, want %v", got, want)
	}
}

func TestCrossDomainRange(t *testing.T) {
	src := SetOf(5, 1, 2)
	dst := SetOf(5, 3)
	r := Cross(src, dst)
	want := FromPairs(5, [][2]int{{1, 3}, {2, 3}})
	if !r.Equal(want) {
		t.Errorf("Cross = %v", r)
	}
	if !r.Domain().Equal(src) {
		t.Errorf("Domain = %v, want %v", r.Domain(), src)
	}
	if !r.Range().Equal(dst) {
		t.Errorf("Range = %v, want %v", r.Range(), dst)
	}
}

func TestCycleWitness(t *testing.T) {
	r := FromPairs(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	cyc := r.CycleWitness()
	if len(cyc) == 0 {
		t.Fatal("no cycle found in cyclic relation")
	}
	// Verify the witness is a real cycle.
	for i := range cyc {
		if !r.Has(cyc[i], cyc[(i+1)%len(cyc)]) {
			t.Fatalf("witness %v not a cycle: missing (%d,%d)", cyc, cyc[i], cyc[(i+1)%len(cyc)])
		}
	}
	if FromPairs(3, [][2]int{{0, 1}}).CycleWitness() != nil {
		t.Error("witness reported for acyclic relation")
	}
}

func TestTopoSort(t *testing.T) {
	r := FromPairs(4, [][2]int{{2, 1}, {1, 0}, {3, 0}})
	order, ok := r.TopoSort()
	if !ok {
		t.Fatal("TopoSort failed on DAG")
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, p := range r.Pairs() {
		if pos[p[0]] >= pos[p[1]] {
			t.Errorf("order %v violates edge %v", order, p)
		}
	}
	if _, ok := FromPairs(2, [][2]int{{0, 1}, {1, 0}}).TopoSort(); ok {
		t.Error("TopoSort succeeded on a cycle")
	}
}

func TestLinearisations(t *testing.T) {
	// Partial order 0<1 over {0,1,2} has 3 linearisations.
	r := FromPairs(3, [][2]int{{0, 1}})
	var got [][]int
	r.Linearisations(func(o []int) bool {
		cp := append([]int(nil), o...)
		got = append(got, cp)
		return true
	})
	if len(got) != 3 {
		t.Fatalf("got %d linearisations, want 3: %v", len(got), got)
	}
	for _, o := range got {
		pos := map[int]int{}
		for i, v := range o {
			pos[v] = i
		}
		if pos[0] >= pos[1] {
			t.Errorf("linearisation %v violates 0<1", o)
		}
	}
	// Early stop.
	count := 0
	r.Linearisations(func([]int) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop yielded %d orders", count)
	}
}

func TestFullComplement(t *testing.T) {
	f := Full(67)
	if f.Card() != 67*67 {
		t.Fatalf("Full card = %d", f.Card())
	}
	if !f.Complement().IsEmpty() {
		t.Error("complement of full not empty")
	}
	e := New(67)
	if !e.Complement().Equal(f) {
		t.Error("complement of empty not full")
	}
}

func TestSetOps(t *testing.T) {
	a := SetOf(70, 0, 63, 64, 69)
	b := SetOf(70, 63, 64)
	if got := a.Inter(b).Elems(); !reflect.DeepEqual(got, []int{63, 64}) {
		t.Errorf("Inter = %v", got)
	}
	if got := a.Diff(b).Elems(); !reflect.DeepEqual(got, []int{0, 69}) {
		t.Errorf("Diff = %v", got)
	}
	if a.Union(b).Card() != 4 {
		t.Error("Union card")
	}
	if c := a.Complement(); c.Has(0) || !c.Has(1) || c.Card() != 66 {
		t.Errorf("Complement wrong: %v", c.Card())
	}
}

// randomRel builds a reproducible random relation for property tests.
func randomRel(rng *rand.Rand, n int, density float64) Rel {
	r := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				r.Add(i, j)
			}
		}
	}
	return r
}

func TestPropertySeqAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(12)
		a, b, c := randomRel(rng, n, 0.3), randomRel(rng, n, 0.3), randomRel(rng, n, 0.3)
		if !a.Seq(b).Seq(c).Equal(a.Seq(b.Seq(c))) {
			t.Fatalf("associativity failed at n=%d", n)
		}
	}
}

func TestPropertyPlusIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(12)
		r := randomRel(rng, n, 0.25)
		p := r.Plus()
		if !p.Plus().Equal(p) {
			t.Fatalf("plus not idempotent at n=%d", n)
		}
		if !r.SubsetOf(p) {
			t.Fatal("r not subset of r+")
		}
		if !p.Seq(p).SubsetOf(p) {
			t.Fatal("r+ not transitively closed")
		}
	}
}

func TestPropertyDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(12)
		a, b := randomRel(rng, n, 0.4), randomRel(rng, n, 0.4)
		lhs := a.Union(b).Complement()
		rhs := a.Complement().Inter(b.Complement())
		if !lhs.Equal(rhs) {
			t.Fatalf("De Morgan failed at n=%d", n)
		}
	}
}

func TestPropertyInverseSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(10)
		a, b := randomRel(rng, n, 0.3), randomRel(rng, n, 0.3)
		// (a;b)⁻¹ = b⁻¹;a⁻¹
		if !a.Seq(b).Inverse().Equal(b.Inverse().Seq(a.Inverse())) {
			t.Fatalf("inverse of composition failed at n=%d", n)
		}
	}
}

func TestQuickSetRoundTrip(t *testing.T) {
	f := func(elems []uint8) bool {
		s := NewSet(256)
		uniq := map[int]bool{}
		for _, e := range elems {
			s.Add(int(e))
			uniq[int(e)] = true
		}
		var want []int
		for e := range uniq {
			want = append(want, e)
		}
		sort.Ints(want)
		got := s.Elems()
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroUniverse(t *testing.T) {
	r := New(0)
	if !r.Acyclic() || !r.Irreflexive() || !r.IsEmpty() {
		t.Error("empty-universe relation misbehaves")
	}
	if !r.Plus().IsEmpty() {
		t.Error("closure over empty universe not empty")
	}
	if Full(0).Card() != 0 {
		t.Error("Full(0) not empty")
	}
}

func BenchmarkPlus16(b *testing.B)  { benchPlus(b, 16) }
func BenchmarkPlus64(b *testing.B)  { benchPlus(b, 64) }
func BenchmarkPlus256(b *testing.B) { benchPlus(b, 256) }

func benchPlus(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(42))
	r := randomRel(rng, n, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Plus()
	}
}

func BenchmarkSeq64(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	r := randomRel(rng, 64, 0.1)
	s := randomRel(rng, 64, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Seq(s)
	}
}

func BenchmarkAcyclic64(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	r := randomRel(rng, 64, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Acyclic()
	}
}

// --- Reference-model property tests ----------------------------------------

// naiveRel is an obviously-correct map-based reference implementation.
type naiveRel map[[2]int]bool

func (r Rel) toNaive() naiveRel {
	n := naiveRel{}
	for _, p := range r.Pairs() {
		n[[2]int{p[0], p[1]}] = true
	}
	return n
}

// succs indexes a naive relation by source, so the references below stay
// quick enough for universes past two words.
func (r naiveRel) succs() map[int][]int {
	out := map[int][]int{}
	for p := range r {
		out[p[0]] = append(out[p[0]], p[1])
	}
	return out
}

func naiveSeq(a, b naiveRel) naiveRel {
	out := naiveRel{}
	bs := b.succs()
	for pa := range a {
		for _, k := range bs[pa[1]] {
			out[[2]int{pa[0], k}] = true
		}
	}
	return out
}

// naivePlus relates i to every element reachable from i in one or more
// steps, by a breadth-first search from each source.
func naivePlus(a naiveRel) naiveRel {
	out := naiveRel{}
	as := a.succs()
	for i := range as {
		queue := append([]int(nil), as[i]...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if out[[2]int{i, j}] {
				continue
			}
			out[[2]int{i, j}] = true
			queue = append(queue, as[j]...)
		}
	}
	return out
}

func equalNaive(a, b naiveRel) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

// TestQuickAgainstReference cross-checks the bit-matrix algebra against the
// naive reference on random relations via testing/quick.
func TestQuickAgainstReference(t *testing.T) {
	type input struct {
		A, B []uint16 // encoded pairs over a universe of 12
	}
	decode := func(enc []uint16) Rel {
		r := New(12)
		for _, e := range enc {
			r.Add(int(e)%12, int(e/16)%12)
		}
		return r
	}
	f := func(in input) bool {
		a, b := decode(in.A), decode(in.B)
		if !equalNaive(a.Seq(b).toNaive(), naiveSeq(a.toNaive(), b.toNaive())) {
			return false
		}
		if !equalNaive(a.Plus().toNaive(), naivePlus(a.toNaive())) {
			return false
		}
		// Acyclicity agrees with the closure's irreflexivity.
		plus := a.Plus()
		if a.Acyclic() != plus.Irreflexive() {
			return false
		}
		// Union/Inter/Diff against set semantics.
		an, bn := a.toNaive(), b.toNaive()
		for _, p := range a.Union(b).Pairs() {
			if !an[[2]int{p[0], p[1]}] && !bn[[2]int{p[0], p[1]}] {
				return false
			}
		}
		for _, p := range a.Inter(b).Pairs() {
			if !an[[2]int{p[0], p[1]}] || !bn[[2]int{p[0], p[1]}] {
				return false
			}
		}
		for _, p := range a.Diff(b).Pairs() {
			if !an[[2]int{p[0], p[1]}] || bn[[2]int{p[0], p[1]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickTopoSound: TopoSort, when it succeeds, is a valid linearisation;
// when it fails, the relation has a cycle.
func TestQuickTopoSound(t *testing.T) {
	f := func(enc []uint16) bool {
		r := New(10)
		for _, e := range enc {
			r.Add(int(e)%10, int(e/16)%10)
		}
		order, ok := r.TopoSort()
		if !ok {
			return !r.Acyclic()
		}
		pos := map[int]int{}
		for i, v := range order {
			pos[v] = i
		}
		for _, p := range r.Pairs() {
			if p[0] != p[1] && pos[p[0]] >= pos[p[1]] {
				return false
			}
		}
		// A successful sort implies acyclicity (self-loops block Kahn).
		return r.Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
