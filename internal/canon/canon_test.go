package canon

import (
	"math/bits"
	"sync"
	"testing"

	"refereenet/internal/graph"
)

// a000088 is OEIS A000088: the number of graphs on n unlabelled vertices.
var a000088 = []uint64{1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668}

func TestClassCensusMatchesA000088(t *testing.T) {
	top := 9 // the n = 9 table takes ~0.5 s to build on two cores
	if testing.Short() {
		top = 8
	}
	for n := 0; n <= top; n++ {
		got, err := ClassCount(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != a000088[n] {
			t.Errorf("ClassCount(%d) = %d, want A000088(%d) = %d", n, got, n, a000088[n])
		}
	}
}

// TestOrbitWeightSum pins the orbit–stabilizer identity the weighted sweep
// path stands on: Σ over classes of n!/|Aut| must equal 2^C(n,2) exactly.
func TestOrbitWeightSum(t *testing.T) {
	for n := 1; n <= 8; n++ {
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, c := range classes {
			sum += c.Weight
		}
		if want := uint64(1) << uint(n*(n-1)/2); sum != want {
			t.Errorf("n=%d: Σ orbit weights = %d, want 2^C(n,2) = %d", n, sum, want)
		}
	}
}

// relabel applies the permutation perm (0-based: new label of vertex i is
// perm[i]) to the edge mask of an n-vertex graph.
func relabel(n int, mask uint64, perm []int) uint64 {
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		u, v := graph.EdgePair(n, bits.TrailingZeros64(m))
		a, b := perm[u-1]+1, perm[v-1]+1
		out |= 1 << uint(graph.EdgeIndex(n, a, b))
	}
	return out
}

// bruteCanonical is the oracle implementation: minimum relabelled mask over
// all n! permutations, |Aut| = number of permutations fixing the mask.
func bruteCanonical(n int, mask uint64) Result {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := ^uint64(0)
	var aut uint64
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			m := relabel(n, mask, perm)
			if m < best {
				best = m
			}
			if m == mask {
				aut++
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	if n == 0 {
		best = 0
		aut = 1
	}
	return Result{Canon: best, AutOrder: aut}
}

// bruteMemo caches bruteForms, which two tests share: the n = 6 oracle
// costs seconds.
var bruteMemo struct {
	sync.Mutex
	forms map[int][]Result
}

// bruteForms returns bruteCanonical of every n-vertex mask, indexed by mask.
func bruteForms(n int) []Result {
	bruteMemo.Lock()
	defer bruteMemo.Unlock()
	if f, ok := bruteMemo.forms[n]; ok {
		return f
	}
	forms := make([]Result, 1<<uint(n*(n-1)/2))
	for mask := range forms {
		forms[mask] = bruteCanonical(n, uint64(mask))
	}
	if bruteMemo.forms == nil {
		bruteMemo.forms = map[int][]Result{}
	}
	bruteMemo.forms[n] = forms
	return forms
}

// TestCanonicalAgainstBruteForce checks Canonical against the all-
// permutations oracle, exhaustively for n ≤ 6 — every labelled graph, so
// every twin pattern the search prunes on. The two algorithms may pick
// different representatives (I-R minimizes over refinement-tree leaves, the
// oracle over all of Sₙ), so the contract is: identical automorphism-group
// order on every mask, and identical partition of the labelled space — the
// map between brute-force forms and I-R forms must be a bijection.
func TestCanonicalAgainstBruteForce(t *testing.T) {
	for n := 2; n <= 6; n++ {
		bruteToIR := map[uint64]uint64{}
		irToBrute := map[uint64]uint64{}
		for i, want := range bruteForms(n) {
			mask := uint64(i)
			got := MustCanonical(n, mask)
			if got.AutOrder != want.AutOrder {
				t.Fatalf("n=%d mask=%#x: |Aut| = %d, brute force says %d", n, mask, got.AutOrder, want.AutOrder)
			}
			if prev, ok := bruteToIR[want.Canon]; ok && prev != got.Canon {
				t.Fatalf("n=%d: brute class %#x maps to I-R forms %#x and %#x (Canonical splits a class)", n, want.Canon, prev, got.Canon)
			}
			if prev, ok := irToBrute[got.Canon]; ok && prev != want.Canon {
				t.Fatalf("n=%d: I-R form %#x covers brute classes %#x and %#x (Canonical merges classes)", n, got.Canon, prev, want.Canon)
			}
			bruteToIR[want.Canon] = got.Canon
			irToBrute[got.Canon] = want.Canon
		}
		if len(bruteToIR) != len(irToBrute) {
			t.Fatalf("n=%d: %d brute classes vs %d I-R classes", n, len(bruteToIR), len(irToBrute))
		}
	}
}

// TestBruteForceClassCensus is the independent class count: bucket every
// n ≤ 6 labelled graph by brute-force canonical form and compare class
// counts, orbit sizes, AND the incremental generator's representative set —
// cross-checked through graph.AdjacencyKey so the census also exercises the
// key path end to end.
func TestBruteForceClassCensus(t *testing.T) {
	for n := 1; n <= 6; n++ {
		orbit := map[uint64]uint64{} // brute canon mask → labelled orbit size
		for _, r := range bruteForms(n) {
			orbit[r.Canon]++
		}
		if uint64(len(orbit)) != a000088[n] {
			t.Fatalf("n=%d: brute-force census found %d classes, want %d", n, len(orbit), a000088[n])
		}
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(classes) != len(orbit) {
			t.Fatalf("n=%d: generator emits %d classes, brute force %d", n, len(classes), len(orbit))
		}
		used := map[uint64]bool{}
		keys := map[string]bool{}
		for _, c := range classes {
			// The representative's own brute-force form locates its class in
			// the oracle's census; every class must be hit exactly once with
			// a matching orbit size.
			bf := bruteForms(n)[c.Mask].Canon
			want, ok := orbit[bf]
			if !ok {
				t.Errorf("n=%d: generator representative %#x is in no brute-force class", n, c.Mask)
				continue
			}
			if used[bf] {
				t.Errorf("n=%d: two generator representatives land in brute-force class %#x", n, bf)
			}
			used[bf] = true
			if c.Weight != want {
				t.Errorf("n=%d class %#x: weight %d, brute-force orbit size %d", n, c.Mask, c.Weight, want)
			}
			// Distinct representatives must be distinct labelled graphs under
			// the AdjacencyKey codec too — the cross-check format of the
			// differential tests.
			key := graph.FromEdgeMask(n, c.Mask).AdjacencyKey()
			if keys[key] {
				t.Errorf("n=%d: AdjacencyKey collision on %q", n, key)
			}
			keys[key] = true
		}
	}
}

// TestCanonicalIdempotent: the canonical form of a canonical form is itself.
func TestCanonicalIdempotent(t *testing.T) {
	for n := 2; n <= 7; n++ {
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			r := MustCanonical(n, c.Mask)
			if r.Canon != c.Mask {
				t.Fatalf("n=%d: representative %#x canonizes to %#x, not itself", n, c.Mask, r.Canon)
			}
		}
	}
}

// closedFormAut lists n = 10 graphs whose |Aut| has a closed form. They are
// the cases twin pruning collapses hardest: every vertex of the empty graph
// and of K₁₀ is a twin of every other, and a search without the pruning
// would walk 10! leaves for each.
var closedFormAut = []struct {
	name     string
	adjacent func(u, v int) bool // 1-based, u < v
	aut      uint64
}{
	{"empty", func(u, v int) bool { return false }, Factorial(10)},
	{"K10", func(u, v int) bool { return true }, Factorial(10)},
	{"star K1,9", func(u, v int) bool { return u == 1 }, Factorial(9)},
	{"K5,5", func(u, v int) bool { return (u <= 5) != (v <= 5) }, 2 * Factorial(5) * Factorial(5)},
	{"perfect matching", func(u, v int) bool { return u%2 == 1 && v == u+1 }, 1 << 5 * Factorial(5)},
}

// edgeMask10 is the 10-vertex edge mask of the graph adjacent describes.
func edgeMask10(adjacent func(u, v int) bool) uint64 {
	var mask uint64
	for u := 1; u <= 10; u++ {
		for v := u + 1; v <= 10; v++ {
			if adjacent(u, v) {
				mask |= 1 << uint(graph.EdgeIndex(10, u, v))
			}
		}
	}
	return mask
}

func TestClosedFormAutOrders(t *testing.T) {
	for _, c := range closedFormAut {
		if got := MustCanonical(10, edgeMask10(c.adjacent)).AutOrder; got != c.aut {
			t.Errorf("%s: |Aut| = %d, want %d", c.name, got, c.aut)
		}
	}
}

func TestCanonicalValidation(t *testing.T) {
	if _, err := Canonical(11, 0); err == nil {
		t.Error("n=11 must be rejected")
	}
	if _, err := Canonical(-1, 0); err == nil {
		t.Error("n=-1 must be rejected")
	}
	if _, err := Canonical(4, 1<<6); err == nil {
		t.Error("mask bit beyond C(4,2)=6 must be rejected")
	}
	if r, err := Canonical(1, 0); err != nil || r.AutOrder != 1 {
		t.Errorf("n=1: %+v, %v", r, err)
	}
}

func TestClassSourceStreamsAllClasses(t *testing.T) {
	src, err := NewClassSource(6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 156 {
		t.Fatalf("n=6 source holds %d classes, want 156", src.Len())
	}
	var count int
	var weightSum uint64
	for g := src.Next(); g != nil; g = src.Next() {
		count++
		weightSum += src.Weight()
		if got := g.EdgeMask(); got != src.Mask() {
			t.Fatalf("class %d: reused graph has mask %#x, source says %#x", count, got, src.Mask())
		}
	}
	if count != 156 || weightSum != 1<<15 {
		t.Errorf("streamed %d classes with weight sum %d, want 156 and 2^15", count, weightSum)
	}
}

// BenchmarkClassTableBuild measures one uncached class-table level: the
// n = 8 extension of the cached n = 7 table (1044 representatives).
func BenchmarkClassTableBuild(b *testing.B) {
	prev, err := classesLevel(7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		extendLevel(8, prev)
	}
}
