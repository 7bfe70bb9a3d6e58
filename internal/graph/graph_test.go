package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	for v := 1; v <= 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d: degree %d, want 0", v, g.Degree(v))
		}
	}
}

func TestAddEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("edge {1,2} missing or not symmetric")
	}
	if !g.HasEdge(1, 3) {
		t.Error("edge {1,3} missing")
	}
	if g.HasEdge(2, 3) {
		t.Error("phantom edge {2,3}")
	}
	if g.M() != 2 {
		t.Errorf("m = %d, want 2", g.M())
	}
	if g.Degree(1) != 2 || g.Degree(2) != 1 || g.Degree(4) != 0 {
		t.Errorf("degrees wrong: %d %d %d", g.Degree(1), g.Degree(2), g.Degree(4))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdgeErr(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdgeErr(0, 1); err == nil {
		t.Error("vertex 0 accepted")
	}
	if err := g.AddEdgeErr(1, 4); err == nil {
		t.Error("vertex 4 accepted on n=3")
	}
	if err := g.AddEdgeErr(1, 2); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if err := g.AddEdgeErr(2, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{1, 2}, {2, 3}})
	if !g.RemoveEdge(2, 1) {
		t.Fatal("RemoveEdge(2,1) = false")
	}
	if g.HasEdge(1, 2) || g.M() != 1 {
		t.Error("edge not removed")
	}
	if g.RemoveEdge(1, 2) {
		t.Error("removing absent edge returned true")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustFromEdges(6, [][2]int{{4, 6}, {4, 1}, {4, 5}, {4, 2}})
	got := g.Neighbors(4)
	want := []int{1, 2, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", got, want)
		}
	}
}

func TestEdgesSorted(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{3, 4}, {1, 2}, {2, 3}})
	edges := g.Edges()
	want := [][2]int{{1, 2}, {2, 3}, {3, 4}}
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{1, 2}})
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.HasEdge(2, 3) {
		t.Error("clone shares storage with original")
	}
	if !c.HasEdge(1, 2) {
		t.Error("clone missing original edge")
	}
}

func TestEqual(t *testing.T) {
	a := MustFromEdges(3, [][2]int{{1, 2}, {2, 3}})
	b := MustFromEdges(3, [][2]int{{2, 3}, {1, 2}})
	c := MustFromEdges(3, [][2]int{{1, 2}, {1, 3}})
	if !a.Equal(b) {
		t.Error("a != b despite same edges")
	}
	if a.Equal(c) {
		t.Error("a == c despite different edges (labels matter)")
	}
	if a.Equal(New(4)) {
		t.Error("graphs of different order compare equal")
	}
}

func TestComplement(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{1, 2}, {3, 4}})
	c := g.Complement()
	if c.M() != 4*3/2-2 {
		t.Fatalf("complement m = %d, want 4", c.M())
	}
	for u := 1; u <= 4; u++ {
		for v := u + 1; v <= 4; v++ {
			if g.HasEdge(u, v) == c.HasEdge(u, v) {
				t.Errorf("edge {%d,%d} in both or neither", u, v)
			}
		}
	}
}

func TestComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		g := randomGraph(rng, n, 0.4)
		if !g.Complement().Complement().Equal(g) {
			t.Fatalf("complement not an involution on %v", g)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}})
	s, oldOf := g.InducedSubgraph([]int{1, 3, 4, 5})
	if s.N() != 4 {
		t.Fatalf("induced n = %d", s.N())
	}
	// Old edges among {1,3,4,5}: 3-4, 4-5, 5-1.
	if s.M() != 3 {
		t.Fatalf("induced m = %d, want 3: %v", s.M(), s)
	}
	// Mapping preserves sorted order of kept IDs.
	want := []int{0, 1, 3, 4, 5}
	for i := 1; i <= 4; i++ {
		if oldOf[i] != want[i] {
			t.Fatalf("oldOf = %v", oldOf)
		}
	}
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			if s.HasEdge(i, j) != g.HasEdge(oldOf[i], oldOf[j]) {
				t.Errorf("induced edge (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{1, 2}, {1, 3}, {1, 4}, {2, 3}})
	if g.MaxDegree() != 3 {
		t.Errorf("max degree = %d, want 3", g.MaxDegree())
	}
	if New(3).MaxDegree() != 0 {
		t.Error("empty graph max degree != 0")
	}
}

func TestEdgeIndexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 11} {
		seen := make(map[int]bool)
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				idx := EdgeIndex(n, u, v)
				if idx < 0 || idx >= n*(n-1)/2 {
					t.Fatalf("n=%d {%d,%d}: index %d out of range", n, u, v, idx)
				}
				if seen[idx] {
					t.Fatalf("n=%d: duplicate index %d", n, idx)
				}
				seen[idx] = true
				gu, gv := EdgePair(n, idx)
				if gu != u || gv != v {
					t.Fatalf("n=%d: EdgePair(%d) = (%d,%d), want (%d,%d)", n, idx, gu, gv, u, v)
				}
			}
		}
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d indices, want %d", n, len(seen), n*(n-1)/2)
		}
	}
}

func TestEdgeIndexSymmetric(t *testing.T) {
	if EdgeIndex(5, 4, 2) != EdgeIndex(5, 2, 4) {
		t.Error("EdgeIndex not symmetric in u,v")
	}
}

func TestEdgeMaskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(9) // C(10,2)=45 ≤ 64
		g := randomGraph(rng, n, 0.5)
		h := FromEdgeMask(n, g.EdgeMask())
		if !g.Equal(h) {
			t.Fatalf("edge mask round trip failed for %v", g)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		g := randomGraph(rng, n, 0.3)
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(h) {
			t.Fatalf("edge list round trip failed for %v", g)
		}
	}
}

func TestAdjacencyKeyDistinguishes(t *testing.T) {
	a := MustFromEdges(3, [][2]int{{1, 2}})
	b := MustFromEdges(3, [][2]int{{1, 3}})
	c := MustFromEdges(3, [][2]int{{1, 2}})
	if a.AdjacencyKey() == b.AdjacencyKey() {
		t.Error("different graphs share a key")
	}
	if a.AdjacencyKey() != c.AdjacencyKey() {
		t.Error("equal graphs have different keys")
	}
}

func TestDOTContainsEdges(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{1, 3}})
	dot := g.DOT("g")
	if !bytes.Contains([]byte(dot), []byte("1 -- 3")) {
		t.Errorf("DOT output missing edge: %s", dot)
	}
}

// randomGraph is a local G(n,p) helper (the gen package depends on graph, so
// graph tests roll their own).
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestQuickEdgeMaskBijection(t *testing.T) {
	// Property: for n=6, every 15-bit mask yields a graph whose mask is itself.
	f := func(mask uint16) bool {
		m := uint64(mask) & (1<<15 - 1)
		return FromEdgeMask(6, m).EdgeMask() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// rowOf returns u's adjacency row in RowWords layout.
func rowOf(g *Graph, u int) []uint64 {
	row := make([]uint64, RowWords(g.N()))
	for _, v := range g.Neighbors(u) {
		row[v>>6] |= 1 << uint(v&63)
	}
	return row
}

// TestMergeRowRebuilds rebuilds random graphs from their rows into one
// cleared graph per n, and checks that a flipped entry is reported at the
// first row that contradicts an earlier one.
func TestMergeRowRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 9, 63, 64, 65, 129} {
		h := New(n)
		for trial := 0; trial < 4; trial++ {
			g := randomGraph(rng, n, 0.3)
			h.Clear()
			for u := 1; u <= n; u++ {
				if j := h.MergeRow(u, rowOf(g, u)); j != 0 {
					t.Fatalf("n=%d: clean row %d reported vertex %d", n, u, j)
				}
			}
			if !h.Equal(g) {
				t.Fatalf("n=%d: rebuilt %v, want %v", n, h, g)
			}

			// Flip entry (u, v): row max(u,v) is the first to see it.
			u, v := 1+rng.Intn(n), 1+rng.Intn(n)
			h.Clear()
			for w := 1; w <= n; w++ {
				row := rowOf(g, w)
				if w == u {
					row[v>>6] ^= 1 << uint(v&63)
				}
				j := h.MergeRow(w, row)
				switch {
				case w < max(u, v) && j != 0:
					t.Fatalf("n=%d flip (%d,%d): row %d reported %d early", n, u, v, w, j)
				case w == max(u, v):
					if want := min(u, v); j != want {
						t.Fatalf("n=%d flip (%d,%d): row %d reported %d, want %d", n, u, v, w, j, want)
					}
				}
				if j != 0 {
					break
				}
			}
		}
	}
}
