package graph

import "math/bits"

// BFSDistances returns dist[v] = number of edges on a shortest path from src
// to v, or -1 when v is unreachable. dist[0] is unused and set to -1.
func (g *Graph) BFSDistances(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n+1)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.n)
	dist[src] = 0
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.adj[u].forEach(func(w int) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		})
	}
	return dist
}

// Eccentricity returns the maximum distance from v to any vertex, or -1 if
// some vertex is unreachable.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFSDistances(v)
	ecc := 0
	for u := 1; u <= g.n; u++ {
		if dist[u] < 0 {
			return -1
		}
		if dist[u] > ecc {
			ecc = dist[u]
		}
	}
	return ecc
}

// Diameter returns the maximum distance over all vertex pairs, or -1 when
// the graph is disconnected (the paper's "diameter at most 3" question is
// then vacuously false). The empty graph has diameter 0.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	diam := 0
	for v := 1; v <= g.n; v++ {
		ecc := g.Eccentricity(v)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterAtMost reports whether the graph is connected with diameter ≤ d.
// From each source it runs a bitset-frontier BFS: a step ORs the adjacency
// rows of the frontier into the next frontier, at most d steps are taken,
// and a source stops as soon as it has seen every vertex. The scratch sets
// live on the stack for n < 256 (a single machine word for n < 64), so the
// scalar referee can call it once per graph without garbage. Diameter and
// Eccentricity answer the same question one BFS distance at a time and are
// its test oracle.
func (g *Graph) DiameterAtMost(d int) bool {
	if g.n == 0 {
		return true
	}
	if d < 0 {
		return false
	}
	words := bitsetWords(g.n + 1)
	if words == 1 {
		return g.diameterAtMostWord(d)
	}
	var buf [3 * 4]uint64
	scratch := buf[:]
	if 3*words > len(buf) {
		scratch = make([]uint64, 3*words)
	}
	seen := bitset(scratch[:words])
	frontier := bitset(scratch[words : 2*words])
	next := bitset(scratch[2*words : 3*words])
	for s := 1; s <= g.n; s++ {
		clear(seen)
		clear(frontier)
		seen.set(s)
		frontier.set(s)
		reached := 1
		for step := 0; step < d && reached < g.n; step++ {
			clear(next)
			for wi, w := range frontier {
				for ; w != 0; w &= w - 1 {
					for k, r := range g.adj[wi<<6+bits.TrailingZeros64(w)] {
						next[k] |= r
					}
				}
			}
			added := 0
			for k := range next {
				next[k] &^= seen[k]
				seen[k] |= next[k]
				added += bits.OnesCount64(next[k])
			}
			if added == 0 {
				break
			}
			reached += added
			frontier, next = next, frontier
		}
		if reached < g.n {
			return false
		}
	}
	return true
}

// diameterAtMostWord is DiameterAtMost for n < 64, where every vertex set
// is one word (bit v is vertex v) and so is every row: the inner loop reads
// the flat row array, not per-vertex slice headers.
func (g *Graph) diameterAtMostWord(d int) bool {
	rows := g.flat                    // rows[v-1] is vertex v's row
	all := uint64(1)<<uint(g.n+1) - 2 // bits 1..n; the shift is 0 at n = 63
	for s := 1; s <= g.n; s++ {
		seen := uint64(1) << uint(s)
		frontier := seen
		for step := 0; step < d && seen != all; step++ {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				next |= rows[bits.TrailingZeros64(f)-1]
			}
			next &^= seen
			if next == 0 {
				break
			}
			seen |= next
			frontier = next
		}
		if seen != all {
			return false
		}
	}
	return true
}

// ConnectedComponents returns comp[v] ∈ {1..k} labelling the k connected
// components (comp[0] unused = 0), and k itself. Labels are assigned in
// order of smallest member ID.
func (g *Graph) ConnectedComponents() (comp []int, k int) {
	comp = make([]int, g.n+1)
	for v := 1; v <= g.n; v++ {
		if comp[v] != 0 {
			continue
		}
		k++
		queue := []int{v}
		comp[v] = k
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			g.adj[u].forEach(func(w int) {
				if comp[w] == 0 {
					comp[w] = k
					queue = append(queue, w)
				}
			})
		}
	}
	return comp, k
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single vertex are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	_, k := g.ConnectedComponents()
	return k == 1
}

// IsBipartite reports whether the graph is 2-colorable, and returns a valid
// coloring side[v] ∈ {0,1} when it is (side[0] unused).
func (g *Graph) IsBipartite() (bool, []int) {
	side := make([]int, g.n+1)
	for i := range side {
		side[i] = -1
	}
	for v := 1; v <= g.n; v++ {
		if side[v] >= 0 {
			continue
		}
		side[v] = 0
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ok := true
			g.adj[u].forEach(func(w int) {
				if side[w] < 0 {
					side[w] = 1 - side[u]
					queue = append(queue, w)
				} else if side[w] == side[u] {
					ok = false
				}
			})
			if !ok {
				return false, nil
			}
		}
	}
	return true, side
}

// SpanningForest returns one spanning-forest edge set, computed by BFS from
// the smallest ID of each component, so that any two parties enumerating the
// same graph obtain the same forest (the k-partition connectivity protocol
// relies on this canonicity).
func (g *Graph) SpanningForest() [][2]int {
	seen := make([]bool, g.n+1)
	var forest [][2]int
	for v := 1; v <= g.n; v++ {
		if seen[v] {
			continue
		}
		seen[v] = true
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			g.adj[u].forEach(func(w int) {
				if !seen[w] {
					seen[w] = true
					forest = append(forest, [2]int{u, w})
					queue = append(queue, w)
				}
			})
		}
	}
	return forest
}

// IsForest reports whether the graph contains no cycle.
func (g *Graph) IsForest() bool {
	_, k := g.ConnectedComponents()
	return g.m == g.n-k
}

// AllPairsDistances returns an (n+1)×(n+1) matrix of BFS distances
// (row/column 0 unused; -1 marks unreachable pairs).
func (g *Graph) AllPairsDistances() [][]int {
	d := make([][]int, g.n+1)
	for v := 1; v <= g.n; v++ {
		d[v] = g.BFSDistances(v)
	}
	return d
}
