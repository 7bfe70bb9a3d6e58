package graph

import (
	"math/bits"
	"math/rand"
	"testing"
)

func path(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n, 1)
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestBFSDistancesPath(t *testing.T) {
	g := path(5)
	d := g.BFSDistances(1)
	for v := 1; v <= 5; v++ {
		if d[v] != v-1 {
			t.Errorf("dist(1,%d) = %d, want %d", v, d[v], v-1)
		}
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{1, 2}})
	d := g.BFSDistances(1)
	if d[3] != -1 || d[4] != -1 {
		t.Errorf("unreachable vertices should be -1: %v", d)
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(2), 1},
		{path(5), 4},
		{cycle(6), 3},
		{cycle(7), 3},
		{complete(5), 1},
		{New(1), 0},
		{MustFromEdges(3, nil), -1}, // disconnected
	}
	for i, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, got, c.want)
		}
	}
}

func TestDiameterAtMost(t *testing.T) {
	g := path(5) // diameter 4
	if g.DiameterAtMost(3) {
		t.Error("path(5) has diameter 4, not ≤ 3")
	}
	if !g.DiameterAtMost(4) {
		t.Error("path(5) has diameter ≤ 4")
	}
	if MustFromEdges(2, nil).DiameterAtMost(3) {
		t.Error("disconnected graph should fail DiameterAtMost")
	}
}

// checkDiameterAtMost compares DiameterAtMost(d) with the BFS-distance
// Diameter for every d in 0..n.
func checkDiameterAtMost(t *testing.T, g *Graph) {
	t.Helper()
	diam := g.Diameter()
	for d := 0; d <= g.N(); d++ {
		if got, want := g.DiameterAtMost(d), diam >= 0 && diam <= d; got != want {
			t.Fatalf("DiameterAtMost(%d) = %v, Diameter = %d for %v", d, got, diam, g)
		}
	}
}

// TestDiameterAtMostMatchesDiameter is the differential check of the
// bitset-frontier BFS against the per-source BFSDistances path: every
// labelled graph with n ≤ 6 (visited in Gray order, one edge toggle per
// step), the degenerate n = 0 and n = 1, and seeded random graphs whose n
// straddles the one-word and multi-word boundaries.
func TestDiameterAtMostMatchesDiameter(t *testing.T) {
	for n := 0; n <= 6; n++ {
		g := New(n)
		total := n * (n - 1) / 2
		checkDiameterAtMost(t, g)
		for i := uint64(1); i < 1<<uint(total); i++ {
			g.ToggleEdge(EdgePair(n, bits.TrailingZeros64(i)))
			checkDiameterAtMost(t, g)
		}
	}
	if !New(0).DiameterAtMost(0) || !New(1).DiameterAtMost(0) {
		t.Error("n = 0 and n = 1 have diameter 0")
	}
	if New(1).DiameterAtMost(-1) {
		t.Error("no graph with a vertex has diameter ≤ -1")
	}

	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{62, 63, 64, 65, 129} {
		for trial := 0; trial < 8; trial++ {
			var g *Graph
			switch trial % 4 {
			case 0: // dense: diameter 2
				g = randomGraph(rng, n, 0.5)
			case 1: // near the connectivity threshold: larger diameters
				g = randomGraph(rng, n, 4/float64(n))
			case 2: // sparse: usually disconnected
				g = randomGraph(rng, n, 1/float64(n))
			default: // a random Hamiltonian path plus a few chords: long diameters
				g = New(n)
				perm := rng.Perm(n)
				for i := 1; i < n; i++ {
					g.AddEdge(perm[i-1]+1, perm[i]+1)
				}
				for c := rng.Intn(4); c > 0; c-- {
					u, v := 1+rng.Intn(n), 1+rng.Intn(n)
					if u != v && !g.HasEdge(u, v) {
						g.AddEdge(u, v)
					}
				}
			}
			checkDiameterAtMost(t, g)
		}
	}
}

// TestDiameterAtMostNoAlloc pins the referee's hot predicate at zero
// allocations for stack-sized n (one word at n = 9, three at n = 129).
func TestDiameterAtMostNoAlloc(t *testing.T) {
	for _, g := range []*Graph{path(9), cycle(129)} {
		if avg := testing.AllocsPerRun(100, func() { g.DiameterAtMost(3) }); avg != 0 {
			t.Errorf("n=%d: DiameterAtMost allocates %.1f per call", g.N(), avg)
		}
	}
}

func TestDiameterMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		g := randomGraph(rng, n, 0.5)
		d := g.AllPairsDistances()
		want := 0
		disconnected := false
		for u := 1; u <= n; u++ {
			for v := 1; v <= n; v++ {
				if d[u][v] < 0 {
					disconnected = true
				} else if d[u][v] > want {
					want = d[u][v]
				}
			}
		}
		if disconnected {
			want = -1
		}
		if got := g.Diameter(); got != want {
			t.Fatalf("diameter = %d, want %d for %v", got, want, g)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustFromEdges(6, [][2]int{{1, 2}, {2, 3}, {4, 5}})
	comp, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if comp[1] != comp[2] || comp[2] != comp[3] {
		t.Error("1,2,3 should share a component")
	}
	if comp[4] != comp[5] {
		t.Error("4,5 should share a component")
	}
	if comp[6] == comp[1] || comp[6] == comp[4] {
		t.Error("6 should be isolated")
	}
}

func TestIsConnected(t *testing.T) {
	if !path(4).IsConnected() {
		t.Error("path should be connected")
	}
	if MustFromEdges(2, nil).IsConnected() {
		t.Error("two isolated vertices are not connected")
	}
	if !New(1).IsConnected() || !New(0).IsConnected() {
		t.Error("trivial graphs are connected")
	}
}

func TestIsBipartite(t *testing.T) {
	if ok, _ := cycle(4).IsBipartite(); !ok {
		t.Error("C4 is bipartite")
	}
	if ok, _ := cycle(5).IsBipartite(); ok {
		t.Error("C5 is not bipartite")
	}
	ok, side := path(4).IsBipartite()
	if !ok {
		t.Fatal("path is bipartite")
	}
	for _, e := range path(4).Edges() {
		if side[e[0]] == side[e[1]] {
			t.Errorf("coloring violates edge %v", e)
		}
	}
}

func TestSpanningForestProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(15)
		g := randomGraph(rng, n, 0.3)
		forest := g.SpanningForest()
		_, k := g.ConnectedComponents()
		if len(forest) != n-k {
			t.Fatalf("forest has %d edges, want n-k = %d", len(forest), n-k)
		}
		// Forest edges exist in g and connect exactly the same components.
		f := New(n)
		for _, e := range forest {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("forest edge %v not in graph", e)
			}
			f.AddEdge(e[0], e[1])
		}
		_, fk := f.ConnectedComponents()
		if fk != k {
			t.Fatalf("forest has %d components, graph has %d", fk, k)
		}
		if !f.IsForest() {
			t.Fatal("spanning forest contains a cycle")
		}
	}
}

func TestSpanningForestDeterministic(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {2, 5}})
	a := g.SpanningForest()
	b := g.Clone().SpanningForest()
	if len(a) != len(b) {
		t.Fatal("nondeterministic forest size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic forest: %v vs %v", a, b)
		}
	}
}

func TestIsForest(t *testing.T) {
	if !path(5).IsForest() {
		t.Error("path is a forest")
	}
	if cycle(4).IsForest() {
		t.Error("cycle is not a forest")
	}
	if !New(3).IsForest() {
		t.Error("edgeless graph is a forest")
	}
}

func TestHasTriangle(t *testing.T) {
	if !complete(3).HasTriangle() {
		t.Error("K3 has a triangle")
	}
	if cycle(4).HasTriangle() {
		t.Error("C4 has no triangle")
	}
	if cycle(5).HasTriangle() {
		t.Error("C5 has no triangle")
	}
	if !complete(5).HasTriangle() {
		t.Error("K5 has a triangle")
	}
	if path(10).HasTriangle() {
		t.Error("path has no triangle")
	}
}

func TestTrianglesExhaustive(t *testing.T) {
	// Cross-check HasTriangle/CountTriangles against brute force over all
	// graphs on 5 vertices.
	n := 5
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := FromEdgeMask(n, mask)
		want := 0
		for a := 1; a <= n; a++ {
			for b := a + 1; b <= n; b++ {
				for c := b + 1; c <= n; c++ {
					if g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c) {
						want++
					}
				}
			}
		}
		if got := g.CountTriangles(); got != want {
			t.Fatalf("mask %d: CountTriangles = %d, want %d", mask, got, want)
		}
		if g.HasTriangle() != (want > 0) {
			t.Fatalf("mask %d: HasTriangle = %v, want %v", mask, g.HasTriangle(), want > 0)
		}
	}
}

func TestHasSquare(t *testing.T) {
	if !cycle(4).HasSquare() {
		t.Error("C4 is a square")
	}
	if cycle(5).HasSquare() {
		t.Error("C5 has no C4 subgraph")
	}
	if !complete(4).HasSquare() {
		t.Error("K4 contains C4")
	}
	if path(6).HasSquare() {
		t.Error("path has no square")
	}
	// C6 plus a chord creating a 4-cycle: 1-2-3-4-5-6-1 plus 1-4 gives cycles
	// of length 4 (1,2,3,4) — wait that is a 4-cycle 1-2-3-4-1? 4-1 is the
	// chord, 1-2, 2-3, 3-4 are edges: yes.
	g := cycle(6)
	g.AddEdge(1, 4)
	if !g.HasSquare() {
		t.Error("C6 + chord 1-4 contains a 4-cycle")
	}
}

func TestHasSquareExhaustive(t *testing.T) {
	// Brute force check on all graphs with 5 vertices: a C4 subgraph exists
	// iff some 4 distinct vertices a,b,c,d form a cycle a-b-c-d-a.
	n := 5
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := FromEdgeMask(n, mask)
		want := false
		perm := [][4]int{}
		var vs [4]int
		var rec func(depth int, used uint)
		rec = func(depth int, used uint) {
			if depth == 4 {
				perm = append(perm, vs)
				return
			}
			for v := 1; v <= n; v++ {
				if used&(1<<uint(v)) == 0 {
					vs[depth] = v
					rec(depth+1, used|1<<uint(v))
				}
			}
		}
		rec(0, 0)
		for _, p := range perm {
			if g.HasEdge(p[0], p[1]) && g.HasEdge(p[1], p[2]) && g.HasEdge(p[2], p[3]) && g.HasEdge(p[3], p[0]) {
				want = true
				break
			}
		}
		if got := g.HasSquare(); got != want {
			t.Fatalf("mask %d: HasSquare = %v, want %v (%v)", mask, got, want, g)
		}
	}
}

func TestFindSquare(t *testing.T) {
	g := cycle(6)
	g.AddEdge(1, 4)
	cyc, ok := g.FindSquare()
	if !ok {
		t.Fatal("FindSquare found nothing")
	}
	for i := 0; i < 4; i++ {
		if !g.HasEdge(cyc[i], cyc[(i+1)%4]) {
			t.Fatalf("returned 4-cycle %v has a non-edge", cyc)
		}
	}
	if _, ok := cycle(5).FindSquare(); ok {
		t.Error("C5 should have no square")
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(5), -1},
		{cycle(3), 3},
		{cycle(4), 4},
		{cycle(7), 7},
		{complete(4), 3},
	}
	for i, c := range cases {
		if got := c.g.Girth(); got != c.want {
			t.Errorf("case %d: girth = %d, want %d", i, got, c.want)
		}
	}
}

func TestDegeneracyBasics(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", New(4), 0},
		{"path", path(6), 1},
		{"tree", MustFromEdges(5, [][2]int{{1, 2}, {1, 3}, {3, 4}, {3, 5}}), 1},
		{"cycle", cycle(8), 2},
		{"K4", complete(4), 3},
		{"K5", complete(5), 4},
	}
	for _, c := range cases {
		d, order := c.g.Degeneracy()
		if d != c.want {
			t.Errorf("%s: degeneracy = %d, want %d", c.name, d, c.want)
		}
		if !c.g.IsDegeneracyOrder(order, d) {
			t.Errorf("%s: order %v does not witness degeneracy %d", c.name, order, d)
		}
		if d > 0 && c.g.IsDegeneracyOrder(order, d-1) {
			t.Errorf("%s: order also witnesses %d, so degeneracy was overestimated", c.name, d-1)
		}
	}
}

func TestDegeneracyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20)
		g := randomGraph(rng, n, 0.35)
		d, order := g.Degeneracy()
		if !g.IsDegeneracyOrder(order, d) {
			t.Fatalf("invalid order for %v", g)
		}
		if d > g.MaxDegree() {
			t.Fatalf("degeneracy %d exceeds max degree %d", d, g.MaxDegree())
		}
		// Degeneracy ≥ m/n lower bound (average degree / 2).
		if n > 0 && d < g.M()/n {
			t.Fatalf("degeneracy %d below m/n = %d", d, g.M()/n)
		}
	}
}

func TestCoreNumbers(t *testing.T) {
	// Two triangles sharing nothing plus a pendant.
	g := MustFromEdges(7, [][2]int{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}, {6, 7}})
	core := g.CoreNumbers()
	for _, v := range []int{1, 2, 3, 4, 5, 6} {
		if core[v] != 2 {
			t.Errorf("core[%d] = %d, want 2", v, core[v])
		}
	}
	if core[7] != 1 {
		t.Errorf("core[7] = %d, want 1", core[7])
	}
	// max core = degeneracy
	d, _ := g.Degeneracy()
	max := 0
	for v := 1; v <= 7; v++ {
		if core[v] > max {
			max = core[v]
		}
	}
	if max != d {
		t.Errorf("max core %d != degeneracy %d", max, d)
	}
}

func TestCoreNumbersMatchDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(16)
		g := randomGraph(rng, n, 0.4)
		core := g.CoreNumbers()
		d, _ := g.Degeneracy()
		max := 0
		for v := 1; v <= n; v++ {
			if core[v] > max {
				max = core[v]
			}
		}
		if max != d {
			t.Fatalf("max core %d != degeneracy %d for %v", max, d, g)
		}
	}
}

func TestGeneralizedDegeneracyOrder(t *testing.T) {
	// K5 has degeneracy 4, but its complement is empty, so generalized
	// degeneracy is 0.
	if _, ok := complete(5).GeneralizedDegeneracyOrder(0); !ok {
		t.Error("K5 should have generalized degeneracy 0")
	}
	// The complement of a path also prunes.
	if _, ok := path(6).Complement().GeneralizedDegeneracyOrder(1); !ok {
		t.Error("complement of path should have generalized degeneracy ≤ 1")
	}
	// C5 is self-complementary-ish: degree 2 everywhere, co-degree 2.
	if _, ok := cycle(5).GeneralizedDegeneracyOrder(1); ok {
		t.Error("C5 should not have generalized degeneracy ≤ 1")
	}
	if _, ok := cycle(5).GeneralizedDegeneracyOrder(2); !ok {
		t.Error("C5 has generalized degeneracy ≤ 2")
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if u.Sets() != 6 {
		t.Fatalf("initial sets = %d", u.Sets())
	}
	if !u.Union(1, 2) || !u.Union(3, 4) || !u.Union(2, 3) {
		t.Fatal("fresh unions should merge")
	}
	if u.Union(1, 4) {
		t.Error("1 and 4 already merged")
	}
	if u.Sets() != 3 {
		t.Errorf("sets = %d, want 3", u.Sets())
	}
	if !u.Same(1, 4) || u.Same(1, 5) {
		t.Error("Same gives wrong answers")
	}
}

func TestEccentricity(t *testing.T) {
	g := path(4)
	if g.Eccentricity(1) != 3 {
		t.Errorf("ecc(1) = %d, want 3", g.Eccentricity(1))
	}
	if g.Eccentricity(2) != 2 {
		t.Errorf("ecc(2) = %d, want 2", g.Eccentricity(2))
	}
	h := MustFromEdges(3, [][2]int{{1, 2}})
	if h.Eccentricity(1) != -1 {
		t.Error("eccentricity in disconnected graph should be -1")
	}
}
