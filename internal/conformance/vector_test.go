package conformance

import (
	"encoding/json"
	"testing"

	"refereenet/internal/collide"
	"refereenet/internal/engine"
)

// The vector half of the conformance suite: every protocol claiming
// engine.VectorLocal must produce a BatchStats byte-identical (compared as
// the canonical JSON wire encoding) to the serial scalar loop on the pinned
// gray fixtures. The walk is registry-driven in both directions — a future
// vectorized protocol is checked automatically the moment it registers, and
// the committed minimum lineup below stops a protocol from silently
// dropping the capability.

// vectorFixtures are the pinned gray windows every claimer must match on:
// an aligned full space, an unaligned window with a ragged tail, and a
// sub-64-rank sliver that never fills one block.
var vectorFixtures = []struct {
	name   string
	n      int
	lo, hi uint64
}{
	{"gray-n5-full", 5, 0, 1 << 10},
	{"gray-n6-window", 6, 100, 612},
	{"gray-n7-sliver", 7, 1<<21 - 39, 1 << 21},
}

// vectorMinimumLineup is the committed floor of vectorized protocols: each
// must engage the vector path (statistics side at least). Removing the
// capability from any of them is a conformance break, not a silent
// regression.
var vectorMinimumLineup = []string{
	"degree", "mod3", "mod7", "hash16",
	"oracle-triangle", "oracle-square", "oracle-conn",
	"forest", "oracle-forest",
}

// vectorDeciderLineup additionally must vectorize their verdicts.
var vectorDeciderLineup = []string{"oracle-triangle", "oracle-square", "oracle-conn", "oracle-forest"}

func statsJSON(t *testing.T, st engine.BatchStats) string {
	t.Helper()
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestVectorLineup pins the capability floor.
func TestVectorLineup(t *testing.T) {
	for _, name := range vectorMinimumLineup {
		p, ok := engine.New(name, engine.Config{N: 6})
		if !ok {
			t.Errorf("lineup protocol %q not registered", name)
			continue
		}
		v, ok := p.(engine.VectorLocal)
		if !ok || v.VectorKernel(false) == nil {
			t.Errorf("protocol %q dropped the VectorLocal capability", name)
		}
	}
	for _, name := range vectorDeciderLineup {
		p, _ := engine.New(name, engine.Config{N: 6})
		if v, ok := p.(engine.VectorLocal); !ok || v.VectorKernel(true) == nil {
			t.Errorf("decider %q no longer vectorizes its verdicts", name)
		}
	}
}

// TestVectorScalarDigest runs every registered protocol that claims
// VectorLocal over the pinned fixtures, vector vs forced-scalar, comparing
// the JSON wire encodings byte for byte. Deciders are additionally checked
// with Decide on.
func TestVectorScalarDigest(t *testing.T) {
	for _, name := range engine.Names() {
		for _, f := range vectorFixtures {
			probe, ok := engine.New(name, engine.Config{N: f.n})
			if !ok {
				t.Fatalf("registry lists %q but New fails", name)
			}
			v, isVec := probe.(engine.VectorLocal)
			if !isVec {
				continue
			}
			decides := []bool{false}
			if _, isDecider := probe.(engine.Decider); isDecider {
				decides = append(decides, true)
			}
			for _, decide := range decides {
				if v.VectorKernel(decide) == nil {
					continue // this instance declines vectorization here
				}
				run := func(noVector bool) string {
					p, _ := engine.New(name, engine.Config{N: f.n, Seed: goldenSeed})
					b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: decide, MaxN: f.n, NoVector: noVector})
					defer b.Close()
					if !noVector && !b.Vectorized() {
						t.Fatalf("%s on %s (decide=%v): kernel offered but batch did not engage", name, f.name, decide)
					}
					return statsJSON(t, b.Run(collide.NewGraySourceRange(f.n, f.lo, f.hi)))
				}
				vec, scalar := run(false), run(true)
				if vec != scalar {
					t.Errorf("%s on %s (decide=%v): vector %s, scalar %s", name, f.name, decide, vec, scalar)
				}
			}
		}
	}
}

// canonVectorFixtures are the pinned class-table windows for the weighted
// half of the digest: a full table with a ragged final block and an
// unaligned window.
var canonVectorFixtures = []struct {
	name   string
	n      int
	lo, hi uint64
}{
	{"canon-n6-full", 6, 0, 0},
	{"canon-n7-window", 7, 10, 900},
}

// TestWeightedVectorScalarDigest is the weighted-block counterpart of
// TestVectorScalarDigest: every vectorized protocol runs the pinned canon
// fixtures through the weighted-vector fold and the forced-scalar weighted
// loop, comparing the JSON wire encodings byte for byte. This is the
// conformance pin for source kind "canon" × a Weighted engine.BlockSource —
// orbit weights folded per lane must reconstitute exactly what the scalar
// Next/Weight pair accumulates.
func TestWeightedVectorScalarDigest(t *testing.T) {
	for _, name := range engine.Names() {
		for _, f := range canonVectorFixtures {
			probe, ok := engine.New(name, engine.Config{N: f.n})
			if !ok {
				t.Fatalf("registry lists %q but New fails", name)
			}
			v, isVec := probe.(engine.VectorLocal)
			if !isVec {
				continue
			}
			decides := []bool{false}
			if _, isDecider := probe.(engine.Decider); isDecider {
				decides = append(decides, true)
			}
			for _, decide := range decides {
				if v.VectorKernel(decide) == nil {
					continue
				}
				run := func(noVector bool) string {
					p, _ := engine.New(name, engine.Config{N: f.n, Seed: goldenSeed})
					b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: decide, MaxN: f.n, NoVector: noVector})
					defer b.Close()
					if !noVector && !b.Vectorized() {
						t.Fatalf("%s on %s (decide=%v): kernel offered but batch did not engage", name, f.name, decide)
					}
					src, err := engine.ResolveSource(engine.SourceSpec{Kind: "canon", N: f.n, Lo: f.lo, Hi: f.hi})
					if err != nil {
						t.Fatal(err)
					}
					return statsJSON(t, b.Run(src))
				}
				vec, scalar := run(false), run(true)
				if vec != scalar {
					t.Errorf("%s on %s (decide=%v): weighted vector %s, weighted scalar %s", name, f.name, decide, vec, scalar)
				}
			}
		}
	}
}
