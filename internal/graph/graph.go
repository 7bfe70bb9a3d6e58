// Package graph implements labelled simple undirected graphs as used in the
// referee model: vertices carry unique identifiers 1..n, "graph" always means
// "labelled graph", and all algorithms speak in terms of those identifiers.
//
// The representation is a bitset adjacency matrix, which keeps HasEdge O(1)
// and neighborhood iteration cache-friendly; the graphs in this repository
// are simulator inputs (n up to a few thousand), not web-scale.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Graph is a simple undirected graph on vertices 1..n.
// The zero value is not usable; call New.
type Graph struct {
	n    int
	m    int
	adj  []bitset // adj[v] for v in 1..n; index 0 unused
	flat []uint64 // the rows adj[1..n], back to back
}

// New returns an empty graph on n ≥ 0 vertices with IDs 1..n.
// All adjacency rows share one flat backing array, so construction costs a
// constant number of allocations instead of one per vertex — the difference
// between usable and unusable when graphs are built in a hot loop.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{n: n, adj: make([]bitset, n+1)}
	if n == 0 {
		return g
	}
	words := bitsetWords(n + 1)
	g.flat = make([]uint64, n*words)
	for v := 1; v <= n; v++ {
		g.adj[v] = bitset(g.flat[(v-1)*words : v*words : v*words])
	}
	return g
}

// FromEdges builds a graph on n vertices from an edge list.
// Invalid or duplicate edges return an error.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdgeErr(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and fixtures.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) checkVertex(v int) {
	if v < 1 || v > g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [1,%d]", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u,v}. Self-loops and duplicates panic;
// use AddEdgeErr when input is untrusted.
func (g *Graph) AddEdge(u, v int) {
	if err := g.AddEdgeErr(u, v); err != nil {
		panic(err)
	}
}

// AddEdgeErr inserts {u,v}, reporting invalid input as an error.
func (g *Graph) AddEdgeErr(u, v int) error {
	if u < 1 || u > g.n || v < 1 || v > g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [1,%d]", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.adj[u].has(v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u].set(v)
	g.adj[v].set(u)
	g.m++
	return nil
}

// Clear removes every edge, keeping the vertex count and the row storage,
// so one graph can be refilled without allocating.
func (g *Graph) Clear() {
	clear(g.flat)
	g.m = 0
}

// RowWords returns the number of words in one adjacency row of an n-vertex
// graph in the layout MergeRow takes: bit v&63 of word v>>6 is vertex v, and
// bit 0 of word 0 is unused.
func RowWords(n int) int { return bitsetWords(n + 1) }

// MergeRow adds vertex u's adjacency row when a graph is rebuilt from its
// rows in increasing u, starting from no edges — the oracle referee's
// decode. row holds u's claimed neighbours in RowWords layout. The rows
// merged before have fixed every edge {j, u} with j < u, so MergeRow first
// checks the claim against them on whole words and returns the smallest
// vertex j ≤ u it contradicts: j == u for a self-loop, j < u when rows u
// and j disagree on {j, u}. Otherwise it adds every edge {u, v} with v > u
// and returns 0. A row bit outside 1..n panics.
func (g *Graph) MergeRow(u int, row []uint64) int {
	g.checkVertex(u)
	adj := g.adj[u]
	if len(row) != len(adj) || row[0]&1 != 0 || row[len(row)-1]>>uint(g.n&63+1) != 0 {
		panic(fmt.Sprintf("graph: row of %d words is not an n=%d row", len(row), g.n))
	}
	uw, self := u>>6, uint64(1)<<uint(u&63)
	for k := 0; k <= uw; k++ {
		bad := row[k] ^ adj[k] // every bit of a word below uw is a vertex j < u
		if k == uw {
			bad = bad&(self-1) | row[k]&self
		}
		if bad != 0 {
			return k<<6 + bits.TrailingZeros64(bad)
		}
	}
	for k := uw; k < len(row); k++ {
		above := row[k]
		if k == uw {
			above &^= self<<1 - 1
		}
		adj[k] |= above
		g.m += bits.OnesCount64(above)
		for ; above != 0; above &= above - 1 {
			v := k<<6 + bits.TrailingZeros64(above)
			g.flat[(v-1)*len(row)+uw] |= self // adj[v] gains u
		}
	}
	return 0
}

// RemoveEdge deletes the edge {u,v} if present and reports whether it was.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	if !g.adj[u].has(v) {
		return false
	}
	g.adj[u].clear(v)
	g.adj[v].clear(u)
	g.m--
	return true
}

// ToggleEdge flips the presence of edge {u,v} — the single-step transition
// the Gray-code enumeration relies on — and reports whether the edge is
// present after the flip. Self-loops panic.
func (g *Graph) ToggleEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop toggle at %d", u))
	}
	if g.adj[u].has(v) {
		g.adj[u].clear(v)
		g.adj[v].clear(u)
		g.m--
		return false
	}
	g.adj[u].set(v)
	g.adj[v].set(u)
	g.m++
	return true
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.adj[u].has(v)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return g.adj[v].count()
}

// Neighbors returns the sorted identifiers of v's neighbors — exactly the
// local knowledge {ID(y) : y ∈ N(v)} a node holds in the referee model.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	out := make([]int, 0, 8)
	g.adj[v].forEach(func(i int) { out = append(out, i) })
	return out
}

// AppendNeighbors appends the neighbors of v to buf in increasing order and
// returns the extended slice. With cap(buf) ≥ deg(v) it does not allocate,
// which is what the simulator's local phase and the collision search rely on
// to visit millions of neighborhoods without garbage.
func (g *Graph) AppendNeighbors(v int, buf []int) []int {
	g.checkVertex(v)
	return g.adj[v].appendMembers(buf)
}

// ForEachNeighbor calls f on each neighbor of v in increasing order.
func (g *Graph) ForEachNeighbor(v int, f func(w int)) {
	g.checkVertex(v)
	g.adj[v].forEach(f)
}

// Edges returns all edges as {u,v} pairs with u < v, sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 1; u <= g.n; u++ {
		g.adj[u].forEach(func(v int) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		})
	}
	return out
}

// Clone returns a deep copy, laid out like New (one flat backing array).
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([]bitset, g.n+1)}
	if g.n == 0 {
		return c
	}
	words := bitsetWords(g.n + 1)
	c.flat = append([]uint64(nil), g.flat...)
	for v := 1; v <= g.n; v++ {
		c.adj[v] = bitset(c.flat[(v-1)*words : v*words : v*words])
	}
	return c
}

// Equal reports whether g and h are the same labelled graph.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for v := 1; v <= g.n; v++ {
		if !g.adj[v].equal(h.adj[v]) {
			return false
		}
	}
	return true
}

// Complement returns the complement graph on the same vertex set.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 1; u <= g.n; u++ {
		for v := u + 1; v <= g.n; v++ {
			if !g.adj[u].has(v) {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (IDs in g), together
// with the mapping newID -> oldID. Vertices are relabelled 1..len(keep) in
// increasing order of their old IDs.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	vs := append([]int(nil), keep...)
	sort.Ints(vs)
	oldOf := make([]int, len(vs)+1)
	newOf := make(map[int]int, len(vs))
	for i, v := range vs {
		g.checkVertex(v)
		oldOf[i+1] = v
		newOf[v] = i + 1
	}
	s := New(len(vs))
	for i := 1; i <= len(vs); i++ {
		u := oldOf[i]
		g.adj[u].forEach(func(w int) {
			if j, ok := newOf[w]; ok && i < j {
				s.AddEdge(i, j)
			}
		})
	}
	return s, oldOf
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 1; v <= g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// String renders a compact description, e.g. "G(n=4, m=3; 1-2 1-3 2-4)".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G(n=%d, m=%d;", g.n, g.m)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d", e[0], e[1])
	}
	b.WriteString(")")
	return b.String()
}
