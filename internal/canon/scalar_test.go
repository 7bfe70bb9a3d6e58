package canon_test

// The scalar quotient path: oracle-diam3 has no lane kernel, so a canon
// sweep of it runs ClassSource.Next and the oracle referee once per class.
// Both must stay allocation-free once a unit is set up, and setting up a
// unit must not copy the class table.

import (
	"runtime"
	"testing"

	"refereenet/internal/canon"
	"refereenet/internal/engine"

	_ "refereenet/internal/core" // oracle-diam3
)

// TestCanonScalarSteadyStateAllocs pins the scalar weighted loop at zero
// allocations per run: the source toggles one reused graph, the batch
// reuses its message arena, and the referee rebuilds every class into a
// recycled graph and runs the stack-scratch DiameterAtMost.
func TestCanonScalarSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	p, ok := engine.New("oracle-diam3", engine.Config{N: 7})
	if !ok {
		t.Fatal("oracle-diam3 not registered")
	}
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: 7})
	defer b.Close()
	if b.Vectorized() {
		t.Fatal("oracle-diam3 engaged the vector path; this test guards the scalar one")
	}
	src, err := canon.NewClassSource(7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Run(src)
	if want.Graphs != 1<<21 || want.Errors != 0 {
		t.Fatalf("first run %+v, want 2^21 labelled graphs and no errors", want)
	}
	avg := testing.AllocsPerRun(10, func() {
		src.Reset()
		if got := b.Run(src); got != want {
			t.Fatalf("rewound run %+v, first run %+v", got, want)
		}
	})
	if avg != 0 {
		t.Errorf("canon-scalar path allocates %.1f per run, want 0", avg)
	}
}

// TestClassSourceSharesTable checks that on a warm cache NewClassSource
// costs the same few bytes whatever its class window: it slices the cached
// table instead of copying it. Building the n = 9 table takes ~0.5 s, so
// n = 9 is skipped under -short.
func TestClassSourceSharesTable(t *testing.T) {
	ns := []int{7, 8}
	if !testing.Short() {
		ns = append(ns, 9)
	}
	for _, n := range ns {
		total, err := canon.ClassCount(n) // warms the cache
		if err != nil {
			t.Fatal(err)
		}
		cost := func(lo, hi uint64) (allocs float64, bytes uint64) {
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := canon.NewClassSource(n, lo, hi); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
		}
		a1, b1 := cost(0, 1)
		if b1 >= 4096 {
			t.Errorf("n=%d: a one-class source costs %d bytes; the table is %d classes", n, b1, total)
		}
		for _, r := range [][2]uint64{{0, 0}, {0, total}, {total / 2, total}, {total, total}} {
			if a, b := cost(r[0], r[1]); a != a1 || b != b1 {
				t.Errorf("n=%d [%d,%d): %.1f allocs, %d bytes per source; [0,1) costs %.1f, %d", n, r[0], r[1], a, b, a1, b1)
			}
		}
	}
}

// TestClassesReturnsCopy checks the other half of the sharing contract:
// the slice Classes returns belongs to the caller, so writing to it leaves
// the cached table — and every later source — untouched.
func TestClassesReturnsCopy(t *testing.T) {
	mine, err := canon.Classes(6)
	if err != nil {
		t.Fatal(err)
	}
	want := mine[3]
	mine[3] = canon.Class{Mask: 1, Weight: 99}
	again, err := canon.Classes(6)
	if err != nil {
		t.Fatal(err)
	}
	src, err := canon.NewClassSource(6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	src.Next()
	if again[3] != want || src.Mask() != want.Mask || src.Weight() != want.Weight {
		t.Errorf("writing a Classes result changed the cache: %+v, source %#x/%d, want %+v", again[3], src.Mask(), src.Weight(), want)
	}
}
