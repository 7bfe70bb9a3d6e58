// Package canon is the isomorphism-quotient plane: a canonical-form routine
// over word-packed edge masks, automorphism-group orders, and a generator of
// one representative per isomorphism class with its labelled-orbit weight.
//
// Every property the referee protocols decide (connectivity, acyclicity,
// girth, bipartiteness, degeneracy) is isomorphism-invariant, yet the
// exhaustive sweeps evaluate all 2^C(n,2) *labelled* graphs: 6.9·10¹⁰ at
// n = 9 where only A000088(9) = 274,668 isomorphism classes exist. Sweeping
// one representative per class and scaling every tally by the class's orbit
// weight n!/|Aut(g)| reconstitutes the exact labelled totals — a ~2.5·10⁵×
// reduction in protocol evaluations at n = 9 — because BatchStats.Merge is
// exact-integer and commutative, so weighted per-class stats merge into the
// same totals a labelled enumeration would produce (for protocols whose
// per-node message sizes are label-invariant, which covers every fixed-width
// protocol in the registry; see docs/canon.md).
//
// The canonical form is the classic individualization–refinement search
// (McKay): start from the degree partition, refine to the coarsest equitable
// ordered partition, and where refinement stalls, individualize each vertex
// of the first non-singleton cell in turn and recurse. Each discrete leaf is
// a relabelling; the canonical form is the minimum relabelled edge mask over
// all leaves, and — because the leaf set is closed under Aut(g), which acts
// freely on it — the number of leaves achieving that minimum is exactly
// |Aut(g)|. The search visits one vertex per class of twin vertices in each
// cell it individualizes and counts the skipped, mirror-image subtrees by
// multiplicity, so the empty graph costs one leaf instead of n!.
package canon

import (
	"fmt"
	"math/bits"

	"refereenet/internal/graph"
)

// MaxN is the largest vertex count the canonical-form routines accept. The
// class table at n = 10 already holds 12,005,168 classes (A000088(10)): its
// build canonizes 1.6·10⁷ prefiltered candidates (~19 s on one core) and
// keeps a map of every class in memory; n = 11's 1.0·10⁹ classes would not
// fit a reasonable table, so the quotient plane stops where graph.Small's
// word packing still leaves headroom.
const MaxN = 10

// Result is the canonical identity of one graph.
type Result struct {
	// Canon is the canonical edge mask: the lexicographically smallest
	// relabelled mask (under the graph.EdgeIndex bit ordering) over the
	// leaves of the individualization–refinement search. Two graphs are
	// isomorphic iff their Canon masks are equal.
	Canon uint64
	// AutOrder is |Aut(g)|, the number of automorphisms.
	AutOrder uint64
}

// OrbitWeight returns the size of the labelled orbit of a graph on n
// vertices with the given automorphism-group order: n!/|Aut|. By the
// orbit–stabilizer theorem the weights over all classes sum to 2^C(n,2),
// which is the identity the weighted sweep path hangs on (pinned by
// TestOrbitWeightSum and FuzzCanonicalForm).
func (r Result) OrbitWeight(n int) uint64 {
	return Factorial(n) / r.AutOrder
}

// Factorial returns n! for 0 ≤ n ≤ 20 (far beyond MaxN; 20! is the uint64
// ceiling).
func Factorial(n int) uint64 {
	if n < 0 || n > 20 {
		panic(fmt.Sprintf("canon: factorial of %d out of uint64 range", n))
	}
	f := uint64(1)
	for i := 2; i <= n; i++ {
		f *= uint64(i)
	}
	return f
}

// Canonical computes the canonical form and automorphism-group order of the
// n-vertex graph whose edges are the set bits of mask under the
// graph.EdgeIndex ordering. It errors on n outside [0, MaxN] or a mask with
// bits at or beyond C(n,2) — masks arrive from corpus files and remote
// specs, so malformed input must fail the unit, not the process.
func Canonical(n int, mask uint64) (Result, error) {
	if n < 0 || n > MaxN {
		return Result{}, fmt.Errorf("canon: n=%d outside [0,%d]", n, MaxN)
	}
	edgeBits := uint(n * (n - 1) / 2)
	if edgeBits < 64 && mask>>edgeBits != 0 {
		return Result{}, fmt.Errorf("canon: mask %#x has bits beyond C(%d,2)=%d", mask, n, edgeBits)
	}
	if n <= 1 {
		return Result{Canon: 0, AutOrder: 1}, nil
	}
	var s searcher
	s.init(n, mask)
	s.search(s.rootPartition(), 1)
	return Result{Canon: s.best, AutOrder: s.bestCount}, nil
}

// CanonicalSmall is Canonical over a graph.Small — the stack-resident graph
// the enumeration engine hands out.
func CanonicalSmall(g *graph.Small) (Result, error) {
	return Canonical(g.N(), g.EdgeMask())
}

// MustCanonical is Canonical for callers with validated input (the class
// generator, tests); it panics on error.
func MustCanonical(n int, mask uint64) Result {
	r, err := Canonical(n, mask)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// searcher holds the state of one individualization–refinement run. All
// scratch lives in fixed arrays sized by MaxN, so a canonization allocates
// nothing beyond the recursion stack — the class generator calls this
// hundreds of thousands of times.
type searcher struct {
	n   int
	adj [MaxN]uint16 // adj[v] bit w set iff {v,w} edge, vertices 0-based

	best      uint64 // minimum relabelled mask over leaves seen so far
	bestCount uint64 // leaves achieving best = |Aut| at the end
	leafSeen  bool
}

// partition is an ordered partition of the vertex set: order lists vertices,
// cellEnd[i] marks position i as the last of its cell. Passed by value — at
// MaxN = 10 it is three small arrays, and copying it per search node is what
// keeps backtracking trivial.
type partition struct {
	order   [MaxN]uint8
	cellEnd [MaxN]bool
}

// adjacency unpacks an n-vertex edge mask into 0-based adjacency rows. The
// graph.EdgeIndex order lays the mask out row by row: row u holds the pairs
// {u, u+1..n-1}, n-1-u bits wide, so each row is one shift and one mask.
func adjacency(n int, mask uint64) (adj [MaxN]uint16) {
	for u := 0; u < n-1; u++ {
		w := uint(n - 1 - u)
		row := uint16(mask&(1<<w-1)) << uint(u+1)
		mask >>= w
		adj[u] |= row
		for r := row; r != 0; r &= r - 1 {
			adj[bits.TrailingZeros16(r)] |= 1 << uint(u)
		}
	}
	return adj
}

// pack is the inverse of adjacency: it lays the upper half of each row back
// into the graph.EdgeIndex order.
func pack(n int, adj *[MaxN]uint16) uint64 {
	var mask uint64
	off := uint(0)
	for u := 0; u < n-1; u++ {
		mask |= uint64(adj[u]>>uint(u+1)) << off
		off += uint(n - 1 - u)
	}
	return mask
}

func (s *searcher) init(n int, mask uint64) {
	s.n = n
	s.adj = adjacency(n, mask)
	s.best = 0
	s.bestCount = 0
	s.leafSeen = false
}

// rootPartition is the unit partition: all vertices in one cell. The first
// refinement pass immediately splits it by degree, so seeding the degree
// partition here would be redundant.
func (s *searcher) rootPartition() partition {
	var p partition
	for i := 0; i < s.n; i++ {
		p.order[i] = uint8(i)
	}
	p.cellEnd[s.n-1] = true
	return p
}

// refine drives p to the coarsest equitable refinement: every vertex of a
// cell has the same number of neighbors in every cell. Splitting is
// label-invariant — subcells are ordered by ascending neighbor-count
// signature, never by vertex identity — which is what makes the whole search
// tree, and therefore the canonical form, a pure isomorphism invariant.
func (s *searcher) refine(p *partition) {
	n := s.n
	// cellMask[c] is the vertex bitmask of the c-th cell, rebuilt each pass —
	// cells only ever split in place, so cell order is stable within a pass.
	var cellMask [MaxN]uint16
	var keys [MaxN]uint64
	for changed := true; changed; {
		changed = false
		nc := 0
		for c := range cellMask {
			cellMask[c] = 0
		}
		for i := 0; i < n; i++ {
			cellMask[nc] |= 1 << uint(p.order[i])
			if p.cellEnd[i] {
				nc++
			}
		}
		// For each cell, compute per-vertex signatures: 4 bits of neighbor
		// count per cell, most significant cell first, so uint64 comparison
		// is lexicographic comparison of count vectors (MaxN cells × 4 bits
		// = 40 bits ≤ 64).
		for i := 0; i < n; {
			end := i
			for !p.cellEnd[end] {
				end++
			}
			if end > i { // singletons cannot split
				var distinct bool
				first := uint64(0)
				for j := i; j <= end; j++ {
					v := p.order[j]
					key := uint64(0)
					for c := 0; c < nc; c++ {
						key = key<<4 | uint64(bits.OnesCount16(s.adj[v]&cellMask[c]))
					}
					keys[j] = key
					if j == i {
						first = key
					} else if key != first {
						distinct = true
					}
				}
				if distinct {
					// Insertion sort positions [i, end] by key — cells are
					// tiny, and stability is irrelevant because equal keys
					// land in the same subcell.
					for j := i + 1; j <= end; j++ {
						k, v := keys[j], p.order[j]
						m := j - 1
						for m >= i && keys[m] > k {
							keys[m+1], p.order[m+1] = keys[m], p.order[m]
							m--
						}
						keys[m+1], p.order[m+1] = k, v
					}
					for j := i; j < end; j++ {
						if keys[j] != keys[j+1] {
							p.cellEnd[j] = true
						}
					}
					changed = true
				}
			}
			i = end + 1
		}
	}
}

// search recurses over the individualization–refinement tree rooted at p.
// mult is the number of leaves each leaf of this subtree stands for (see
// the twin pruning below).
func (s *searcher) search(p partition, mult uint64) {
	s.refine(&p)
	// Find the first non-singleton cell; a fully discrete partition is a
	// leaf.
	target := -1
	for i := 0; i < s.n; i++ {
		if !p.cellEnd[i] {
			target = i
			break
		}
	}
	if target < 0 {
		s.leaf(&p, mult)
		return
	}
	end := target
	for !p.cellEnd[end] {
		end++
	}
	// Individualize each vertex of the target cell in turn: move it to the
	// front of the cell and seal it as a singleton. Every choice spawns one
	// branch; automorphic choices spawn isomorphic subtrees, which is
	// exactly how min-leaf multiplicity counts |Aut|.
	//
	// Twins — v and w with the same neighbours apart from each other — are
	// explored once. The transposition (v w) is then an automorphism that
	// fixes every vertex individualized so far, so it maps v's subtree onto
	// w's leaf by leaf with equal relabelled masks: the minimum leaf is the
	// same, and v's subtree counts once for each twin of its class in the
	// cell. Twinhood is an equivalence (true and false twins cannot mix),
	// so the classes partition the cell.
	var covered uint16
	for j := target; j <= end; j++ {
		v := p.order[j]
		if covered&(1<<v) != 0 {
			continue
		}
		twins := uint64(1)
		for i := j + 1; i <= end; i++ {
			w := p.order[i]
			if s.adj[v]&^(1<<w) == s.adj[w]&^(1<<v) {
				covered |= 1 << w
				twins++
			}
		}
		q := p
		copy(q.order[target+1:j+1], p.order[target:j])
		q.order[target] = v
		q.cellEnd[target] = true
		s.search(q, mult*twins)
	}
}

// leaf scores one discrete partition worth mult leaves: relabel vertex
// order[i] to i+1 and compare the relabelled mask against the best seen.
func (s *searcher) leaf(p *partition, mult uint64) {
	var pos [MaxN]uint8
	for i := 0; i < s.n; i++ {
		pos[p.order[i]] = uint8(i)
	}
	var rel [MaxN]uint16
	for i := 0; i < s.n; i++ {
		for a := s.adj[p.order[i]]; a != 0; a &= a - 1 {
			rel[i] |= 1 << pos[bits.TrailingZeros16(a)]
		}
	}
	mask := pack(s.n, &rel)
	switch {
	case !s.leafSeen || mask < s.best:
		s.best, s.bestCount, s.leafSeen = mask, mult, true
	case mask == s.best:
		s.bestCount += mult
	}
}
