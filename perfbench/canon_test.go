package main

import (
	"testing"

	"refereenet/internal/engine"
)

// The canon-scalar gate pins the n = 9 oracle-diam3 accepted count from a
// weighted class sweep. A labelled sweep at n = 9 is out of reach, so this
// backs the pin by showing the same class sweep equals the exhaustive gray
// sweep, field by field, wherever the gray sweep is affordable.
func TestCanonMatchesGrayDiam3(t *testing.T) {
	top := 7
	if testing.Short() {
		top = 6
	}
	for n := 2; n <= top; n++ {
		spec := engine.ShardSpec{Protocol: "oracle-diam3", Decide: true}
		spec.Source = engine.SourceSpec{Kind: "gray", N: n}
		gray, err := engine.ExecuteShard(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Source = engine.SourceSpec{Kind: "canon", N: n}
		classes, err := engine.ExecuteShard(spec)
		if err != nil {
			t.Fatal(err)
		}
		if gray != classes {
			t.Fatalf("n=%d: gray %+v, canon %+v", n, gray, classes)
		}
	}
}

func TestCanonScalarPlanCoversTable(t *testing.T) {
	units := classUnits("oracle-diam3", true, canonN, a000088n9, canonUnits)
	if units[0].Source.Lo != 0 || units[len(units)-1].Source.Hi != a000088n9 {
		t.Fatalf("plan covers [%d, %d)", units[0].Source.Lo, units[len(units)-1].Source.Hi)
	}
	for i := 1; i < len(units); i++ {
		if units[i].Source.Lo != units[i-1].Source.Hi {
			t.Fatalf("gap between units %d and %d", i-1, i)
		}
	}
}
