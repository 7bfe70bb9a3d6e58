package main

import (
	"reflect"
	"testing"

	"refereenet/internal/engine"
)

// genRequests returns the hot plan and the first count requests of seed's
// stream.
func genRequests(seed int64, count int) (engine.Plan, []svcRequest, error) {
	st, err := newRequestStream(seed)
	if err != nil {
		return engine.Plan{}, nil, err
	}
	reqs := make([]svcRequest, count)
	for i := range reqs {
		if reqs[i], err = st.next(); err != nil {
			return engine.Plan{}, nil, err
		}
	}
	return st.hot, reqs, nil
}

func fingerprints(t *testing.T, seed int64) (hot string, order []string, cold map[string]bool) {
	t.Helper()
	h, reqs, err := genRequests(seed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if hot, err = h.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	cold = map[string]bool{}
	for _, r := range reqs {
		fp, err := r.Plan.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, fp)
		if !r.Hot {
			cold[fp] = true
		}
	}
	return hot, order, cold
}

func TestSeededRequests(t *testing.T) {
	hot1, order1, cold1 := fingerprints(t, 1)
	hot1b, order1b, _ := fingerprints(t, 1)
	if hot1 != hot1b || !reflect.DeepEqual(order1, order1b) {
		t.Fatal("the same seed gave different requests")
	}
	hot2, _, cold2 := fingerprints(t, 2)
	if hot1 == hot2 {
		t.Error("seeds 1 and 2 share the hot plan")
	}
	shared := 0
	for fp := range cold2 {
		if cold1[fp] {
			shared++
		}
	}
	if shared > 0 {
		t.Errorf("seeds 1 and 2 share %d cold plans", shared)
	}
	hits := 0
	for _, fp := range order1 {
		if fp == hot1 {
			hits++
		}
	}
	if frac := float64(hits) / float64(len(order1)); frac < 0.75 || frac > 0.85 {
		t.Errorf("hot share %.3f, want about %.2f", frac, svcHot)
	}
	if len(cold1) != len(order1)-hits {
		t.Errorf("%d distinct cold plans among %d cold requests", len(cold1), len(order1)-hits)
	}
}

func TestColdPlanCoversWindow(t *testing.T) {
	_, reqs, err := genRequests(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		sh := r.Plan.Shards
		if len(sh) != svcShards {
			t.Fatalf("%d shards, want %d", len(sh), svcShards)
		}
		for i, s := range sh {
			if s.Source.Lo%svcGrain != 0 || s.Source.Hi <= s.Source.Lo || (i > 0 && s.Source.Lo != sh[i-1].Source.Hi) {
				t.Fatalf("bad shard %d of %+v", i, sh)
			}
		}
		if sh[len(sh)-1].Source.Hi-sh[0].Source.Lo != svcWindow || sh[len(sh)-1].Source.Hi > svcSpace {
			t.Fatalf("plan does not cover one window: %+v", sh)
		}
	}
}

func TestShuffledPlan(t *testing.T) {
	base := rankUnits("oracle-conn", true, 6, 16)
	a, b, c := shuffled(base, 1), shuffled(base, 1), shuffled(base, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different shard orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 gave the same shard order")
	}
	fa, _ := a.Fingerprint()
	fc, _ := c.Fingerprint()
	if fa == fc {
		t.Error("different shard orders share a fingerprint")
	}
}
