package canon

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Class is one isomorphism class of n-vertex graphs: its canonical
// representative mask and its labelled-orbit weight n!/|Aut|. Summing Weight
// over a class table reconstitutes the full labelled space 2^C(n,2).
type Class struct {
	Mask   uint64
	Weight uint64
}

// The class tables are deterministic pure functions of n, but expensive to
// build (the n = 9 table canonizes ~4.2·10⁵ candidate graphs, ~0.5 s on
// two cores), and a serve daemon resolves one "canon" spec per unit — so
// tables are computed once per process and cached. Levels build on each
// other (every n-vertex graph is an (n-1)-vertex graph plus one vertex), so
// computing Classes(9) caches 1..8 along the way. A cached table is never
// written after it is built, so ClassSource slices it in place while
// Classes hands out copies.
var classCache struct {
	sync.Mutex
	levels map[int][]Class
}

// Classes returns the class table for n: one canonical representative per
// isomorphism class of graphs on n labelled vertices, in ascending order of
// canonical mask, each carrying its labelled-orbit weight. The ascending
// mask order is the class-index order of the "canon" source kind — it must
// never change, or every canon plan fingerprint and manifest would strand.
// The slice is a copy the caller owns.
func Classes(n int) ([]Class, error) {
	lvl, err := classesLevel(n)
	if err != nil {
		return nil, err
	}
	return append([]Class(nil), lvl...), nil
}

// ClassCount returns the number of isomorphism classes of n-vertex graphs —
// OEIS A000088(n) — building (and caching) the table if needed.
func ClassCount(n int) (uint64, error) {
	lvl, err := classesLevel(n)
	if err != nil {
		return 0, err
	}
	return uint64(len(lvl)), nil
}

// classesLevel returns the cached table for n, shared: callers must not
// write to it.
func classesLevel(n int) ([]Class, error) {
	if n < 0 || n > MaxN {
		return nil, fmt.Errorf("canon: n=%d outside class-table range [0,%d]", n, MaxN)
	}
	classCache.Lock()
	defer classCache.Unlock()
	if classCache.levels == nil {
		classCache.levels = map[int][]Class{
			0: {{Mask: 0, Weight: 1}},
			1: {{Mask: 0, Weight: 1}},
		}
	}
	for m := 2; m <= n; m++ {
		if _, ok := classCache.levels[m]; !ok {
			classCache.levels[m] = extendLevel(m, classCache.levels[m-1])
		}
	}
	return classCache.levels[n], nil
}

// extendLevel builds the level-m table from level m-1: every m-vertex graph
// contains an (m-1)-vertex induced subgraph (drop any vertex), so extending
// each (m-1)-class representative by a new vertex m with every neighborhood
// ⊆ {1..m-1} covers every m-class. Most of those |classes(m-1)|·2^(m-1)
// candidates (3.2·10⁶ at m = 9) are redundant, so a candidate is canonized
// only if the new vertex maximizes the isomorphism invariant
// f(v) = (deg v, Σ of neighbour degrees), compared lexicographically with
// ties passing (see newVertexMaximal). That loses no class: every class c
// has a vertex v maximizing f; deleting v leaves a graph isomorphic to some
// (m-1)-representative r, and extending r by the image of N(v) gives a
// candidate isomorphic to c in which vertex m plays v's role, so it passes.
// At m = 9, 418,190 candidates pass for 274,668 classes.
func extendLevel(m int, prev []Class) []Class {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(prev) {
		workers = len(prev)
	}
	parts := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[uint64]uint64)
			for i := w; i < len(prev); i += workers {
				adj := adjacency(m-1, prev[i].Mask)
				for sub := uint16(0); sub < 1<<uint(m-1); sub++ {
					if !newVertexMaximal(m, &adj, sub) {
						continue
					}
					ext := adj
					ext[m-1] = sub
					for sb := sub; sb != 0; sb &= sb - 1 {
						ext[bits.TrailingZeros16(sb)] |= 1 << uint(m-1)
					}
					r := MustCanonical(m, pack(m, &ext))
					seen[r.Canon] = r.AutOrder
				}
			}
			parts[w] = seen
		}()
	}
	wg.Wait()

	merged := parts[0]
	if merged == nil {
		merged = make(map[uint64]uint64)
	}
	for _, part := range parts[1:] {
		for c, a := range part {
			merged[c] = a
		}
	}
	masks := make([]uint64, 0, len(merged))
	for c := range merged {
		masks = append(masks, c)
	}
	slices.Sort(masks)
	nf := Factorial(m)
	lvl := make([]Class, len(masks))
	for i, c := range masks {
		lvl[i] = Class{Mask: c, Weight: nf / merged[c]}
	}
	return lvl
}

// newVertexMaximal reports whether vertex m-1 (0-based), joined to the
// neighbourhood sub of the (m-1)-vertex graph adj, maximizes
// f(v) = (deg v, Σ of neighbour degrees) in the extended graph.
func newVertexMaximal(m int, adj *[MaxN]uint16, sub uint16) bool {
	dm := bits.OnesCount16(sub)
	var d [MaxN]int // degrees in the extended graph
	for v := 0; v < m-1; v++ {
		d[v] = bits.OnesCount16(adj[v]) + int(sub>>uint(v)&1)
		if d[v] > dm {
			return false
		}
	}
	sm := 0
	for sb := sub; sb != 0; sb &= sb - 1 {
		sm += d[bits.TrailingZeros16(sb)]
	}
	for v := 0; v < m-1; v++ {
		if d[v] < dm {
			continue
		}
		sv := int(sub>>uint(v)&1) * dm
		for a := adj[v]; a != 0; a &= a - 1 {
			sv += d[bits.TrailingZeros16(a)]
		}
		if sv > sm {
			return false
		}
	}
	return true
}
