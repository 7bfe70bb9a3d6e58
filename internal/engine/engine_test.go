package engine_test

// The differential suite behind the refactor: every registered protocol must
// produce bit-identical transcripts under every scheduler, the legacy
// sim.LocalPhase entry point, and a naive direct evaluation of Γˡ (the
// pre-engine reference semantics), across exhaustive sweeps of small labelled
// graphs. This is the "all schedulers are wall-clock-only" claim, checked by
// enumeration rather than by trust.

import (
	"fmt"
	"sync"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/collide"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/sim"

	// Populate the protocol registry.
	_ "refereenet/internal/core"
	_ "refereenet/internal/sketch"
)

// naiveTranscript is the reference semantics: a fresh direct evaluation of
// the local function at every node, no buffer reuse, no scheduling.
func naiveTranscript(g *graph.Graph, p engine.Local) *engine.Transcript {
	n := g.N()
	t := &engine.Transcript{N: n, Messages: make([]bits.String, n)}
	for v := 1; v <= n; v++ {
		t.Messages[v-1] = p.LocalMessage(n, v, g.Neighbors(v))
	}
	return t
}

// sampleStride thins the larger sweeps (1 024 graphs at n = 5, 32 768 at
// n = 6) for protocols whose local function is orders of magnitude more
// expensive than the strawmen; everything else is exhaustive. The strides
// are coprime to the mask space so sampled masks vary across the whole
// range.
func sampleStride(name string, n int) uint64 {
	switch name {
	case "sketch-conn": // Θ(log³ n)-bit messages, hash sampler per cell
		if n >= 6 {
			return 311
		}
		if n == 5 {
			return 17
		}
	case "degeneracy", "generalized":
		if n >= 6 {
			return 7 // big.Int power-sum arithmetic per node
		}
	}
	return 1
}

func TestSchedulersMatchLegacyOnAllSmallGraphs(t *testing.T) {
	maxN := 6
	if testing.Short() {
		maxN = 4
	}
	for _, name := range engine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for n := 2; n <= maxN; n++ {
				p, ok := engine.New(name, engine.Config{N: n, Seed: 99})
				if !ok {
					t.Fatalf("registry lost %q", name)
				}
				stride := sampleStride(name, n)
				schedulers := []engine.Scheduler{
					engine.Serial{},
					engine.Chunked{Workers: 2},
					engine.Async{Seed: 1, Workers: 2},
					engine.Async{}, // fresh shuffled schedule per run
				}
				var rank uint64
				src := collide.NewGraySource(n)
				for g := src.Next(); g != nil; g = src.Next() {
					rank++
					if stride > 1 && rank%stride != 0 {
						continue
					}
					want := naiveTranscript(g, p)
					legacy := sim.LocalPhase(g, p, sim.Sequential)
					assertSameTranscript(t, name, "sim.LocalPhase", src.Mask(), want, legacy)
					for _, s := range schedulers {
						got := engine.LocalPhase(g, p, s)
						assertSameTranscript(t, name, s.Name(), src.Mask(), want, got)
					}
					if t.Failed() {
						return
					}
				}
			}
		})
	}
}

func assertSameTranscript(t *testing.T, proto, path string, mask uint64, want, got *engine.Transcript) {
	t.Helper()
	if got.N != want.N || len(got.Messages) != len(want.Messages) {
		t.Fatalf("%s/%s mask=%d: transcript shape %d/%d vs %d/%d",
			proto, path, mask, got.N, len(got.Messages), want.N, len(want.Messages))
	}
	for i := range want.Messages {
		if !got.Messages[i].Equal(want.Messages[i]) {
			t.Fatalf("%s/%s mask=%d: message of node %d differs", proto, path, mask, i+1)
		}
	}
	if got.MaxBits() != want.MaxBits() || got.TotalBits() != want.TotalBits() {
		t.Fatalf("%s/%s mask=%d: accounting (%d,%d) vs (%d,%d)",
			proto, path, mask, got.MaxBits(), got.TotalBits(), want.MaxBits(), want.TotalBits())
	}
}

// Larger generated graphs exercise chunk boundaries and worker counts the
// n ≤ 6 sweep cannot reach.
func TestSchedulersMatchOnGeneratedGraphs(t *testing.T) {
	rng := gen.NewRand(7)
	graphs := []*graph.Graph{
		gen.RandomTree(rng, 97),
		gen.KTree(rng, 64, 3),
		gen.Gnp(rng, 50, 0.2),
		gen.Star(33),
		gen.Complete(17),
	}
	for _, name := range engine.Names() {
		for _, g := range graphs {
			p, _ := engine.New(name, engine.Config{N: g.N(), Seed: 3})
			if name == "sketch-conn" && g.N() > 50 {
				continue // keep the suite quick; sketch cost grows fast
			}
			want := naiveTranscript(g, p)
			for _, s := range []engine.Scheduler{
				engine.Serial{},
				engine.Chunked{},
				engine.Chunked{Workers: 3},
				engine.Async{Seed: 42},
				engine.Async{Workers: 5},
			} {
				got := engine.LocalPhase(g, p, s)
				assertSameTranscript(t, name, fmt.Sprintf("%s/n=%d", s.Name(), g.N()), 0, want, got)
			}
		}
	}
}

// spyLocal records which nodes were evaluated, and how often.
type spyLocal struct {
	mu    sync.Mutex
	calls map[int]int
	order []int
}

func (s *spyLocal) LocalMessage(n, id int, nbrs []int) bits.String {
	s.mu.Lock()
	s.calls[id]++
	s.order = append(s.order, id)
	s.mu.Unlock()
	var w bits.Writer
	w.WriteUint(uint64(id), 8)
	return w.String()
}

func TestEverySchedulerCallsEachNodeOnce(t *testing.T) {
	g := gen.Path(23)
	for _, s := range []engine.Scheduler{
		engine.Serial{},
		engine.Chunked{},
		engine.Chunked{Workers: 100}, // more workers than nodes
		engine.Async{},
		engine.Async{Seed: 9, Workers: 1},
	} {
		spy := &spyLocal{calls: make(map[int]int)}
		engine.LocalPhase(g, spy, s)
		if len(spy.calls) != 23 {
			t.Fatalf("%s: %d distinct nodes called", s.Name(), len(spy.calls))
		}
		for id, c := range spy.calls {
			if c != 1 {
				t.Fatalf("%s: node %d called %d times", s.Name(), id, c)
			}
		}
	}
}

func TestAsyncSeedReproducesDeliveryOrder(t *testing.T) {
	g := gen.Path(40)
	order := func(seed int64) []int {
		spy := &spyLocal{calls: make(map[int]int)}
		engine.LocalPhase(g, spy, engine.Async{Seed: seed, Workers: 1})
		return spy.order
	}
	a, b := order(12345), order(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different delivery order at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// A fixed-seed schedule should actually shuffle: identity order would
	// mean Async degenerated into Serial.
	identity := true
	for i, v := range a {
		if v != i+1 {
			identity = false
			break
		}
	}
	if identity {
		t.Error("Async{Seed:12345} delivered in identity order")
	}
}

func TestSchedulerByName(t *testing.T) {
	for name, want := range map[string]string{
		"serial":     "serial",
		"sequential": "serial",
		"chunked":    "chunked",
		"parallel":   "chunked",
		"async":      "async",
	} {
		s, ok := engine.SchedulerByName(name)
		if !ok || s.Name() != want {
			t.Errorf("SchedulerByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := engine.SchedulerByName("congest"); ok {
		t.Error("congest resolves in engine; it lives in internal/congest")
	}
}

func TestRegistry(t *testing.T) {
	names := engine.Names()
	if len(names) < 15 {
		t.Fatalf("registry has %d protocols, want ≥ 15: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, want := range []string{"forest", "degeneracy", "sketch-conn", "degree", "oracle-conn"} {
		if _, ok := engine.Lookup(want); !ok {
			t.Errorf("protocol %q not registered", want)
		}
	}
	if _, ok := engine.New("no-such-protocol", engine.Config{}); ok {
		t.Error("unknown name resolved")
	}
	// K defaults apply when zero.
	p, _ := engine.New("bounded-degree", engine.Config{N: 8})
	if nm, ok := p.(engine.Named); !ok || nm.Name() != "bounded-degree[d=4]" {
		t.Errorf("bounded-degree default K wrong: %v", p)
	}
	p, _ = engine.New("bounded-degree", engine.Config{N: 8, K: 2})
	if nm, ok := p.(engine.Named); !ok || nm.Name() != "bounded-degree[d=2]" {
		t.Errorf("bounded-degree K=2 not honored: %v", p)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	engine.Register(engine.Registration{
		Name: "forest",
		New:  func(engine.Config) engine.Local { return nil },
	})
}

func TestLog2Ceil(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11}} {
		if got := engine.Log2Ceil(c[0]); got != c[1] {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}
