package collide

import (
	"testing"

	"refereenet/internal/core"
	"refereenet/internal/graph"
	"refereenet/internal/sim"
)

func TestEnumerateCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		count := 0
		EnumerateGraphs(n, func(_ uint64, g *graph.Graph) bool {
			if g.N() != n {
				t.Fatalf("graph with %d vertices during n=%d enumeration", g.N(), n)
			}
			count++
			return true
		})
		want := 1 << uint(n*(n-1)/2)
		if count != want {
			t.Errorf("n=%d: enumerated %d graphs, want %d", n, count, want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	count := 0
	EnumerateGraphs(4, func(mask uint64, _ *graph.Graph) bool {
		count++
		return mask < 9
	})
	if count != 10 {
		t.Errorf("visited %d graphs, want 10 (masks 0..9)", count)
	}
}

func TestFamilyCountsSmall(t *testing.T) {
	// n=3: 8 graphs; all are square-free (no 4 vertices); forests are those
	// without the triangle: 7; bipartite with parts {1},{2,3}: edges only
	// 1-2, 1-3 allowed → 4 graphs; connected: 4 (triangle + three paths).
	fc := Count(3)
	if fc.All != 8 {
		t.Errorf("all = %d", fc.All)
	}
	if fc.SquareFree != 8 {
		t.Errorf("squareFree = %d", fc.SquareFree)
	}
	if fc.Forests != 7 {
		t.Errorf("forests = %d", fc.Forests)
	}
	if fc.Bipartite != 4 {
		t.Errorf("bipartite = %d", fc.Bipartite)
	}
	if fc.Connected != 4 {
		t.Errorf("connected = %d", fc.Connected)
	}
}

func TestFamilyCountsBipartiteFormula(t *testing.T) {
	// Bipartite-with-fixed-parts count is exactly 2^{⌊n/2⌋·⌈n/2⌉}.
	for _, n := range []int{2, 4, 6} {
		fc := Count(n)
		half := n / 2
		want := uint64(1) << uint(half*(n-half))
		if fc.Bipartite != want {
			t.Errorf("n=%d: bipartite = %d, want %d", n, fc.Bipartite, want)
		}
	}
}

func TestFamilyCountsForestsCayleyCheck(t *testing.T) {
	// Labelled trees (connected forests) on n vertices: n^(n-2) by Cayley.
	for n, want := range map[int]uint64{4: 16, 5: 125} {
		var trees uint64
		src := NewGraySource(n)
		for g := src.Next(); g != nil; g = src.Next() {
			if g.IsForest() && g.IsConnected() {
				trees++
			}
		}
		if trees != want {
			t.Errorf("labelled trees on %d vertices = %d, want %d (Cayley)", n, trees, want)
		}
	}
}

func TestSquareFreeGrowth(t *testing.T) {
	// Square-free counts must sit strictly between forests and all graphs
	// from n=4 on, and shrink relative to all graphs as n grows.
	prevRatio := 1.0
	for _, n := range []int{4, 5, 6} {
		fc := Count(n)
		if fc.SquareFree <= fc.Forests {
			t.Errorf("n=%d: square-free %d not above forests %d", n, fc.SquareFree, fc.Forests)
		}
		if fc.SquareFree >= fc.All {
			t.Errorf("n=%d: square-free %d not below all %d", n, fc.SquareFree, fc.All)
		}
		ratio := float64(fc.SquareFree) / float64(fc.All)
		if ratio >= prevRatio {
			t.Errorf("n=%d: square-free ratio %f did not shrink (prev %f)", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestStrawmenRespectBitBudgets(t *testing.T) {
	for _, s := range append(WeakStrawmen(), StrongStrawmen()...) {
		for _, n := range []int{3, 5, 7} {
			g := graph.FromEdgeMask(n, 0b101)
			for v := 1; v <= n; v++ {
				m := s.Local.LocalMessage(n, v, g.Neighbors(v))
				if m.Len() > s.Bits(n) {
					t.Errorf("%s: message %d bits exceeds budget %d", s.Label, m.Len(), s.Bits(n))
				}
			}
		}
	}
}

func TestDecisionCollisionDegreeOnly(t *testing.T) {
	// At n=4 the degree vector pins squares down (every 2-regular graph on 4
	// vertices IS a C4), but at n=5 a witness exists: C4+pendant vs
	// triangle+path share the vector (3,2,2,2,1) and disagree on squares.
	s := DegreeOnly()
	var cert *Certificate
	for n := 4; n <= 5 && cert == nil; n++ {
		cert = FindDecisionCollision(s.Local, (*graph.Graph).HasSquare, n, nil)
	}
	if cert == nil {
		t.Fatal("expected a degree-only collision for squares by n=5")
	}
	if cert.N != 5 {
		t.Errorf("collision found at n=%d; expected none at n=4", cert.N)
	}
	validateCert(t, cert, s, (*graph.Graph).HasSquare)
}

func validateCert(t *testing.T, cert *Certificate, s Strawman, pred func(*graph.Graph) bool) {
	t.Helper()
	a, b := cert.GraphA(), cert.GraphB()
	if a.Equal(b) {
		t.Fatal("certificate graphs are identical")
	}
	if pred != nil {
		if pred(a) == pred(b) {
			t.Fatal("certificate predicate values agree")
		}
		if pred(a) != cert.PredA || pred(b) != cert.PredB {
			t.Fatal("certificate predicate labels wrong")
		}
	}
	ma, mb := messageVector(s.Local, a), messageVector(s.Local, b)
	if !vectorsEqual(ma, mb) {
		t.Fatal("certificate message vectors differ — not a collision")
	}
}

func TestDecisionCollisionsForWeakStrawmen(t *testing.T) {
	// Every capacity-starved strawman collides on every hard predicate by
	// n ≤ 6 — the empirical Theorems 1–3 at enumerable scale.
	preds := []struct {
		name string
		f    func(*graph.Graph) bool
	}{
		{"square", (*graph.Graph).HasSquare},
		{"triangle", (*graph.Graph).HasTriangle},
		{"diam<=3", func(g *graph.Graph) bool { return g.DiameterAtMost(3) }},
		{"connected", (*graph.Graph).IsConnected},
	}
	for _, s := range WeakStrawmen() {
		for _, pr := range preds {
			var cert *Certificate
			for n := 4; n <= 6 && cert == nil; n++ {
				cert = FindDecisionCollision(s.Local, pr.f, n, nil)
			}
			if cert == nil {
				t.Errorf("%s vs %s: no collision found up to n=6", s.Label, pr.name)
				continue
			}
			validateCert(t, cert, s, pr.f)
		}
	}
}

func TestStrongStrawmenSurviveTinyN(t *testing.T) {
	// Honest Θ(log n) protocols have slack capacity at n ≤ 5: DegreeSum's
	// message vector is collision-free over ALL graphs there, which is why
	// the paper's lower bounds must be counting arguments, not exhaustive
	// ones. (This is a regression pin for the observed behaviour, not a
	// theorem: slack capacity only makes collisions unlikely, not
	// impossible.)
	s := DegreeSum()
	for _, n := range []int{4, 5} {
		if cert := FindReconstructionCollision(s.Local, n, nil); cert != nil {
			t.Errorf("degree+sum unexpectedly collided at n=%d: %v", n, cert)
		}
	}
}

func TestReconstructionCollisionSquareFree(t *testing.T) {
	// Lemma 1 witness: two distinct square-free graphs, identical messages.
	// Degree-only admits an immediate witness: {1-2,3-4} vs {1-3,2-4} share
	// the degree vector (1,1,1,1,0).
	s := DegreeOnly()
	cert := FindReconstructionCollision(s.Local, 5, func(g *graph.Graph) bool { return !g.HasSquare() })
	if cert == nil {
		t.Fatal("expected reconstruction collision for square-free family")
	}
	validateCert(t, cert, s, nil)
	if cert.GraphA().HasSquare() || cert.GraphB().HasSquare() {
		t.Error("witnesses must be square-free")
	}
}

func TestDegeneracyMessagesDoNotCollideOnSparse(t *testing.T) {
	// Sanity inversion: the real degeneracy-k message (WITH the ID field)
	// must have NO reconstruction collision within the degeneracy ≤ 2 family
	// at n=5 — Theorem 5 says it reconstructs them.
	p := &core.DegeneracyProtocol{K: 2}
	cert := FindReconstructionCollision(p, 5, func(g *graph.Graph) bool {
		d, _ := g.Degeneracy()
		return d <= 2
	})
	if cert != nil {
		t.Fatalf("degeneracy protocol collided on its own family: %v", cert)
	}
}

func TestCountDistinctVectors(t *testing.T) {
	s := DegreeOnly()
	distinct, family := CountDistinctVectors(s.Local, 4, nil)
	if family != 64 {
		t.Fatalf("family size %d, want 64", family)
	}
	// Degree-only vectors = degree sequences (ordered): far fewer than 64.
	if distinct >= family {
		t.Errorf("distinct %d should be < %d", distinct, family)
	}
	// Graph count per degree sequence: at least the two K2-placement
	// collisions exist, so distinct < 64; exact value is the number of
	// degree sequences realized, which is 11 for n=4? Don't hardcode —
	// just require it matches a brute-force map.
	seen := map[string]bool{}
	EnumerateGraphs(4, func(_ uint64, g *graph.Graph) bool {
		key := ""
		for v := 1; v <= 4; v++ {
			key += string(rune('a' + g.Degree(v)))
		}
		seen[key] = true
		return true
	})
	if int(distinct) != len(seen) {
		t.Errorf("distinct = %d, brute force says %d", distinct, len(seen))
	}
}

func TestOracleHasNoCollision(t *testing.T) {
	// The non-frugal oracle (full adjacency rows) trivially never collides.
	o := core.NewSquareOracle()
	cert := FindReconstructionCollision(o, 4, nil)
	if cert != nil {
		t.Fatalf("oracle collided: %v", cert)
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	s := DegreeOnly()
	cert := FindDecisionCollision(s.Local, (*graph.Graph).IsConnected, 4, nil)
	if cert == nil {
		t.Skip("no connectivity collision at n=4 for degree-only")
	}
	if cert.String() == "" {
		t.Error("empty certificate string")
	}
	if cert.GraphA().N() != 4 || cert.GraphB().N() != 4 {
		t.Error("wrong certificate graph sizes")
	}
}

var _ sim.Local = bufferedFunc(nil)

func TestCountParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		seq := Count(n)
		par := CountParallel(n)
		if seq != par {
			t.Fatalf("n=%d: parallel %+v != sequential %+v", n, par, seq)
		}
	}
}

// TestSearchCertificatesPinned pins the exact certificates the searches
// return. Each search keeps the first colliding pair its walk meets, so the
// masks record the enumeration order as well as the protocol: a change of
// walk that still finds some collision would pass validateCert but fail
// here. The values were recorded from the searches' earlier dedicated
// Gray-order enumerator, which GraySource replaced.
func TestSearchCertificatesPinned(t *testing.T) {
	preds := map[string]func(*graph.Graph) bool{
		"square":    (*graph.Graph).HasSquare,
		"triangle":  (*graph.Graph).HasTriangle,
		"diam<=3":   func(g *graph.Graph) bool { return g.DiameterAtMost(3) },
		"connected": (*graph.Graph).IsConnected,
	}
	strawmen := map[string]Strawman{}
	for _, s := range WeakStrawmen() {
		strawmen[s.Label] = s
	}
	for _, want := range []struct {
		strawman, pred string
		n              int
		maskA, maskB   uint64
		messageBits    int
	}{
		{"degree", "square", 5, 62, 199, 15},
		{"degree", "triangle", 5, 62, 199, 15},
		{"degree", "diam<=3", 6, 246, 813, 18},
		{"degree", "connected", 5, 106, 201, 15},
		{"hash[2b]", "square", 4, 31, 29, 8},
		{"hash[2b]", "triangle", 4, 13, 15, 8},
		{"hash[2b]", "diam<=3", 4, 7, 5, 8},
		{"hash[2b]", "connected", 4, 7, 5, 8},
		{"hash[3b]", "square", 5, 75, 219, 15},
		{"hash[3b]", "triangle", 4, 3, 43, 12},
		{"hash[3b]", "diam<=3", 4, 1, 41, 12},
		{"hash[3b]", "connected", 4, 1, 41, 12},
		{"mod[3]", "square", 5, 302, 775, 25},
		{"mod[3]", "triangle", 5, 298, 771, 25},
		{"mod[3]", "diam<=3", 6, 2172, 6197, 30},
		{"mod[3]", "connected", 5, 298, 771, 25},
		{"trunc[1+2b]", "square", 6, 1024, 3121, 18},
		{"trunc[1+2b]", "triangle", 6, 1026, 3123, 18},
		{"trunc[1+2b]", "diam<=3", 6, 1030, 3127, 18},
		{"trunc[1+2b]", "connected", 6, 1030, 3127, 18},
	} {
		var cert *Certificate
		for n := 4; n <= 6 && cert == nil; n++ {
			cert = FindDecisionCollision(strawmen[want.strawman].Local, preds[want.pred], n, nil)
		}
		if cert == nil || cert.N != want.n || cert.MaskA != want.maskA || cert.MaskB != want.maskB || cert.MessageBits != want.messageBits {
			t.Errorf("%s vs %s: certificate %+v, want n=%d masks (%d, %d) bits %d",
				want.strawman, want.pred, cert, want.n, want.maskA, want.maskB, want.messageBits)
		}
	}
	cert := FindReconstructionCollision(DegreeOnly().Local, 5, func(g *graph.Graph) bool { return !g.HasSquare() })
	if cert == nil || cert.MaskA != 29 || cert.MaskB != 43 || cert.MessageBits != 15 {
		t.Errorf("square-free reconstruction certificate %+v, want masks (29, 43) bits 15", cert)
	}
	for _, want := range []struct {
		n                        int
		degree, forests, familyN uint64
	}{{3, 8, 7, 7}, {4, 54, 38, 38}, {5, 533, 291, 291}} {
		distinct, family := CountDistinctVectors(DegreeOnly().Local, want.n, nil)
		forests, forestFamily := CountDistinctVectors(DegreeSum().Local, want.n, (*graph.Graph).IsForest)
		if distinct != want.degree || family != 1<<uint(want.n*(want.n-1)/2) ||
			forests != want.forests || forestFamily != want.familyN {
			t.Errorf("n=%d: distinct vectors degree %d/%d, degree+sum on forests %d/%d; want %d, %d/%d",
				want.n, distinct, family, forests, forestFamily, want.degree, want.forests, want.familyN)
		}
	}
}
