package core

import (
	"fmt"
	mbits "math/bits"
	"sync"

	"refereenet/internal/bits"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
	"refereenet/internal/sim"
)

// OracleDecider is the hypothetical protocol Γ that the paper's reduction
// theorems quantify over. It is exact but *not frugal*: every node ships its
// whole adjacency row (n bits), the referee rebuilds G and evaluates the
// predicate. Plugging it into the reductions validates the constructions of
// Theorems 1–3 end to end; plugging a frugal strawman in instead produces
// wrong reconstructions — which is the theorem.
type OracleDecider struct {
	Label string
	// Pred is the predicate the referee evaluates on the rebuilt graph. The
	// graph is recycled by the next Decide, so Pred must not retain it.
	Pred func(*graph.Graph) bool
	// Accept, when non-nil, is the lane-parallel form of Pred: per-lane
	// accept bits over a transposed 64-graph block. Oracles whose predicate
	// has a bitsliced kernel (triangle, square, connectivity) set it; the
	// rest decline VectorKernel and run scalar.
	Accept func(*lanes.Block) uint64

	// graphs recycles Decide's rebuilt graph. A pool rather than one field,
	// because concurrent Batch workers share one decider.
	graphs sync.Pool
}

// Name implements sim.Named.
func (o *OracleDecider) Name() string { return "oracle:" + o.Label }

// LocalMessage encodes the incidence row of node id: bit j-1 set iff j is a
// neighbor. Exactly n bits, a pure function of (n, id, nbrs).
func (o *OracleDecider) LocalMessage(n, id int, nbrs []int) bits.String {
	var w bits.Writer
	o.AppendLocalMessage(&w, n, id, nbrs)
	return w.String()
}

// AppendLocalMessage implements engine.BufferedLocal: the (ascending)
// neighbor list packed into one word per 64 row bits, each written with a
// single WriteUint — one call for n ≤ 64.
func (o *OracleDecider) AppendLocalMessage(w *bits.Writer, n, id int, nbrs []int) {
	i := 0
	for lo := 0; lo < n; lo += 64 {
		width := min(n-lo, 64)
		var row uint64 // neighbor j in lo+1..lo+width at bit lo+width-j
		for ; i < len(nbrs) && nbrs[i] <= lo+width; i++ {
			row |= 1 << uint(lo+width-nbrs[i])
		}
		w.WriteUint(row, width)
	}
}

// VectorKernel implements engine.VectorLocal. The message side is exact by
// construction — every node ships exactly n row bits — and the verdict side
// is the Accept kernel when present. Decide on self-produced rows cannot
// error (rows are symmetric by construction), so the kernel's
// Accepted/Rejected partition of the live lanes matches the scalar loop
// bit for bit. Oracles without an Accept kernel return nil under decide,
// declining vectorization rather than approximating it.
func (o *OracleDecider) VectorKernel(decide bool) lanes.Kernel {
	if !decide {
		return lanes.ConstWidthKernel(func(n int) int { return n })
	}
	if o.Accept == nil {
		return nil
	}
	return lanes.DecideKernel(func(n int) int { return n }, o.Accept, true)
}

// Decide rebuilds the graph from the rows and applies the predicate. It
// rejects inconsistent rows (an edge asserted by one endpoint only). The
// graph is recycled across calls, so a referee deciding graph after graph
// allocates nothing.
func (o *OracleDecider) Decide(n int, msgs []bits.String) (bool, error) {
	if err := checkRowCount(n, msgs); err != nil {
		return false, err
	}
	g, _ := o.graphs.Get().(*graph.Graph)
	if g == nil || g.N() != n {
		g = graph.New(n)
	}
	err := decodeRows(g, msgs)
	ans := err == nil && o.Pred(g)
	o.graphs.Put(g)
	return ans, err
}

func checkRowCount(n int, msgs []bits.String) error {
	if len(msgs) != n {
		return fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	return nil
}

// decodeRows rebuilds g, an n-vertex graph with n = len(msgs), from the
// adjacency rows, checking lengths, self-loops and symmetry. Each row is
// read a word at a time into graph.MergeRow's layout, which checks it
// against the rows before it on whole words.
func decodeRows(g *graph.Graph, msgs []bits.String) error {
	n := g.N()
	g.Clear()
	var buf [4]uint64 // rows up to n = 255 stay on the stack
	row := buf[:]
	if words := graph.RowWords(n); words > len(buf) {
		row = make([]uint64, words)
	} else {
		row = row[:words]
	}
	for i, m := range msgs {
		if m.Len() != n {
			return fmt.Errorf("core: row %d has %d bits, want %d", i+1, m.Len(), n)
		}
		r := bits.NewReader(m)
		// Row bit j-1 is vertex j; word k of the layout holds vertices
		// max(1, 64k) .. min(n, 64k+63), the lowest at the top of the read.
		lo := 1
		for k := range row {
			width := min(n, 64*k+63) - lo + 1
			v, _ := r.ReadUint(width)
			row[k] = mbits.Reverse64(v) >> uint(64-width) << uint(lo&63)
			lo += width
		}
		switch j := g.MergeRow(i+1, row); {
		case j == i+1:
			return fmt.Errorf("core: row %d has a self-loop", i+1)
		case j != 0:
			return fmt.Errorf("core: rows %d and %d disagree on edge", i+1, j)
		}
	}
	return nil
}

// The predicates the paper proves hard, as oracle deciders.

// NewSquareOracle decides "G contains C4 as a subgraph" (Theorem 1).
func NewSquareOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "square",
		Pred:   (*graph.Graph).HasSquare,
		Accept: (*lanes.Block).Squares,
	}
}

// NewTriangleOracle decides "G contains a triangle" (Theorem 3).
func NewTriangleOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "triangle",
		Pred:   (*graph.Graph).HasTriangle,
		Accept: (*lanes.Block).Triangles,
	}
}

// NewDiameterOracle decides "diam(G) ≤ d" (Theorem 2 uses d = 3).
func NewDiameterOracle(d int) *OracleDecider {
	return &OracleDecider{
		Label: fmt.Sprintf("diameter<=%d", d),
		Pred:  func(g *graph.Graph) bool { return g.DiameterAtMost(d) },
	}
}

// NewConnectivityOracle decides "G is connected" (the paper's main open
// question; the oracle shows the reductions framework applies to it too).
func NewConnectivityOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "connected",
		Pred:   (*graph.Graph).IsConnected,
		Accept: (*lanes.Block).Connected,
	}
}

// NewForestOracle decides "G is a forest". ForestProtocol reconstructs
// forests frugally but is not a Decider; this oracle gives sweeps a yes/no
// acyclicity tally (labelled totals cross-check against OEIS A001858).
func NewForestOracle() *OracleDecider {
	return &OracleDecider{
		Label:  "forest",
		Pred:   (*graph.Graph).IsForest,
		Accept: (*lanes.Block).Forests,
	}
}

// OracleReconstructor ships adjacency rows and returns the graph itself —
// the trivial non-frugal reconstructor, Lemma 1's upper-bound foil.
type OracleReconstructor struct{}

// Name implements sim.Named.
func (OracleReconstructor) Name() string { return "oracle:reconstruct" }

// LocalMessage is the adjacency row of node id.
func (OracleReconstructor) LocalMessage(n, id int, nbrs []int) bits.String {
	return (&OracleDecider{}).LocalMessage(n, id, nbrs)
}

// Reconstruct rebuilds the graph from the rows.
func (OracleReconstructor) Reconstruct(n int, msgs []bits.String) (*graph.Graph, error) {
	if err := checkRowCount(n, msgs); err != nil {
		return nil, err
	}
	g := graph.New(n)
	if err := decodeRows(g, msgs); err != nil {
		return nil, err
	}
	return g, nil
}

var (
	_ sim.Decider       = (*OracleDecider)(nil)
	_ sim.Reconstructor = OracleReconstructor{}
)
