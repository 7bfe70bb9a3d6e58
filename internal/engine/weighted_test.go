package engine_test

import (
	"testing"

	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// weightedSlice is a Weighted source: each graph carries a multiplicity, the
// way the canon plane streams one class representative per labelled orbit.
type weightedSlice struct {
	graphs  []*graph.Graph
	weights []uint64
	pos     int
	w       uint64
}

func (s *weightedSlice) Next() *graph.Graph {
	if s.pos >= len(s.graphs) {
		return nil
	}
	g := s.graphs[s.pos]
	s.w = s.weights[s.pos]
	s.pos++
	return g
}

func (s *weightedSlice) Weight() uint64 { return s.w }

// Weights is never called: weightedSlice serves no blocks.
func (s *weightedSlice) Weights(*[lanes.Lanes]uint64) { panic("weightedSlice serves no blocks") }

// TestBatchWeightedEqualsMultiplied pins the weighted-accumulation contract:
// a weighted run must produce exactly the stats of the expanded stream where
// each graph appears Weight times. Workers > 1 also exercises the routing —
// if a weighted source were fanned through the locked shared-source path the
// Weighted interface would be hidden behind the wrapper and weights silently
// dropped, so this doubles as the inline-routing test.
func TestBatchWeightedEqualsMultiplied(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(6),
		gen.Cycle(5),
		gen.DisjointCliques(2, 3),
		gen.Complete(4),
		graph.New(3),
	}
	weights := []uint64{1, 7, 360, 24, 6}
	var expanded []*graph.Graph
	for i, g := range graphs {
		for k := uint64(0); k < weights[i]; k++ {
			expanded = append(expanded, g)
		}
	}
	p, ok := engine.New("oracle-conn", engine.Config{})
	if !ok {
		t.Fatal("oracle-conn not registered")
	}
	want := engine.RunBatch(p, engine.NewSliceSource(expanded), engine.BatchOptions{Workers: 1, Decide: true})
	for _, workers := range []int{1, 4} {
		src := &weightedSlice{graphs: graphs, weights: weights}
		got := engine.RunBatch(p, src, engine.BatchOptions{Workers: workers, Decide: true})
		if got != want {
			t.Errorf("workers=%d: weighted stats %+v, want expanded-stream stats %+v", workers, got, want)
		}
	}
}

// TestBatchWeightedCountersScale checks that weights scale Graphs and
// TotalBits while the per-graph maxima MaxBits/MaxN stay untouched.
func TestBatchWeightedCountersScale(t *testing.T) {
	g := gen.Path(4)
	src := &weightedSlice{graphs: []*graph.Graph{g}, weights: []uint64{5}}
	d, ok := engine.New("oracle-conn", engine.Config{})
	if !ok {
		t.Fatal("oracle-conn not registered")
	}
	one := engine.RunBatch(d, engine.NewSliceSource([]*graph.Graph{g}), engine.BatchOptions{Workers: 1})
	got := engine.RunBatch(d, src, engine.BatchOptions{Workers: 1})
	if got.Graphs != 5*one.Graphs || got.TotalBits != 5*one.TotalBits {
		t.Errorf("weighted counters %+v, want 5x of %+v", got, one)
	}
	if got.MaxBits != one.MaxBits || got.MaxN != one.MaxN {
		t.Errorf("maxima must stay unweighted: got %+v vs %+v", got, one)
	}
}
