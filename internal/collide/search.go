package collide

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/sim"
)

// Certificate is an explicit impossibility witness: two labelled graphs on
// the same vertex set whose message vectors under a protocol are identical
// bit for bit, yet whose predicate values differ. No global function can
// rescue such a protocol — the referee's input is literally the same.
type Certificate struct {
	N           int
	MaskA       uint64
	MaskB       uint64
	PredA       bool
	PredB       bool
	MessageBits int
}

// GraphA rebuilds the first witness graph.
func (c *Certificate) GraphA() *graph.Graph { return graph.FromEdgeMask(c.N, c.MaskA) }

// GraphB rebuilds the second witness graph.
func (c *Certificate) GraphB() *graph.Graph { return graph.FromEdgeMask(c.N, c.MaskB) }

// String renders the certificate for reports.
func (c *Certificate) String() string {
	return fmt.Sprintf("n=%d: %v (pred=%v) vs %v (pred=%v), identical %d-bit message vectors",
		c.N, c.GraphA(), c.PredA, c.GraphB(), c.PredB, c.MessageBits)
}

// messageVector runs the local phase of p over g (by direct evaluation —
// cheaper than a full transcript for millions of graphs).
func messageVector(p sim.Local, g *graph.Graph) []bits.String {
	n := g.N()
	msgs := make([]bits.String, n)
	engine.Fill(g, p, msgs, make([]int, 0, n))
	return msgs
}

func vectorFingerprint(msgs []bits.String) uint64 {
	h := uint64(fnvOffset)
	for _, m := range msgs {
		h = fnvMix(h, uint64(m.Len()))
		for _, b := range m.Bytes() {
			h = fnvMix(h, uint64(b))
		}
	}
	return h
}

func vectorsEqual(a, b []bits.String) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func totalBits(msgs []bits.String) int {
	t := 0
	for _, m := range msgs {
		t += m.Len()
	}
	return t
}

// FindDecisionCollision searches all labelled graphs on n vertices for a
// collision certificate of the given protocol against pred. family (may be
// nil) restricts the search to a subfamily. Returns nil when no collision
// exists at this n (the protocol *might* decide pred here — or the n is too
// small for the pigeonhole to bite). Like every search here it walks
// GraySource order and panics for n outside [1, MaxEnumerationN].
func FindDecisionCollision(p sim.Local, pred func(*graph.Graph) bool, n int, family func(*graph.Graph) bool) *Certificate {
	// Bucket graphs by fingerprint, remembering one representative mask per
	// observed (fingerprint, predicate) pair; verify exact equality before
	// declaring a collision.
	type entry struct {
		mask uint64
		pred bool
	}
	buckets := make(map[uint64][]entry)
	msgs := make([]bits.String, n)
	nbrs := make([]int, 0, n)
	src := NewGraySource(n)
	for g := src.Next(); g != nil; g = src.Next() {
		if family != nil && !family(g) {
			continue
		}
		nbrs = engine.Fill(g, p, msgs, nbrs)
		fp := vectorFingerprint(msgs)
		pv := pred(g)
		for _, e := range buckets[fp] {
			if e.pred != pv && vectorsEqual(msgs, messageVector(p, graph.FromEdgeMask(n, e.mask))) {
				return &Certificate{
					N: n, MaskA: e.mask, MaskB: src.Mask(),
					PredA: e.pred, PredB: pv,
					MessageBits: totalBits(msgs),
				}
			}
		}
		buckets[fp] = append(buckets[fp], entry{src.Mask(), pv})
	}
	return nil
}

// FindReconstructionCollision searches a family for two *distinct* graphs
// with identical message vectors — the direct Lemma 1 witness that the
// protocol cannot reconstruct the family.
func FindReconstructionCollision(p sim.Local, n int, family func(*graph.Graph) bool) *Certificate {
	buckets := make(map[uint64][]uint64)
	msgs := make([]bits.String, n)
	nbrs := make([]int, 0, n)
	src := NewGraySource(n)
	for g := src.Next(); g != nil; g = src.Next() {
		if family != nil && !family(g) {
			continue
		}
		nbrs = engine.Fill(g, p, msgs, nbrs)
		fp := vectorFingerprint(msgs)
		for _, om := range buckets[fp] {
			if vectorsEqual(msgs, messageVector(p, graph.FromEdgeMask(n, om))) {
				return &Certificate{
					N: n, MaskA: om, MaskB: src.Mask(),
					MessageBits: totalBits(msgs),
				}
			}
		}
		buckets[fp] = append(buckets[fp], src.Mask())
	}
	return nil
}

// CountDistinctVectors returns how many distinct message vectors p produces
// across a family on n vertices — the protocol's *used* capacity. If this is
// smaller than the family size, reconstruction is impossible (pigeonhole),
// even before exhibiting the collision.
func CountDistinctVectors(p sim.Local, n int, family func(*graph.Graph) bool) (distinct, familySize uint64) {
	buckets := make(map[uint64][]uint64)
	msgs := make([]bits.String, n)
	nbrs := make([]int, 0, n)
	src := NewGraySource(n)
	for g := src.Next(); g != nil; g = src.Next() {
		if family != nil && !family(g) {
			continue
		}
		familySize++
		nbrs = engine.Fill(g, p, msgs, nbrs)
		fp := vectorFingerprint(msgs)
		if !seenVector(msgs, buckets[fp], p, n) {
			buckets[fp] = append(buckets[fp], src.Mask())
			distinct++
		}
	}
	return distinct, familySize
}

// seenVector reports whether msgs equals the message vector of any graph in
// masks.
func seenVector(msgs []bits.String, masks []uint64, p sim.Local, n int) bool {
	for _, om := range masks {
		if vectorsEqual(msgs, messageVector(p, graph.FromEdgeMask(n, om))) {
			return true
		}
	}
	return false
}
