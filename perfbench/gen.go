package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"refereenet/internal/engine"
)

// Everything the program under test receives is generated here from the
// workload seed: the shard order of the sweep plans and the request stream
// of svc-mix. The same seed gives the same plans and requests.

// shuffled returns the plan with its shards in a seed-determined order. The
// merged answer does not depend on the order; the dispatch sequence does.
func shuffled(shards []engine.ShardSpec, seed int64) engine.Plan {
	out := append([]engine.ShardSpec(nil), shards...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return engine.Plan{Shards: out}
}

// The svc-mix plan space: n = 7 oracle-conn windows of svcWindow ranks, cut
// into svcShards shards, with every bound on a svcGrain grid.
const (
	svcN      = 7
	svcSpace  = uint64(1) << 21 // 2^C(7,2) labelled graphs
	svcWindow = uint64(1) << 18
	svcGrain  = uint64(1) << 10
	svcShards = 4
	svcHot    = 0.8 // share of requests that ask the hot plan
)

// svcRequest is one generated submission: the plan and its JSON body.
type svcRequest struct {
	Hot  bool
	Plan engine.Plan
	Body []byte
}

// coldPlan draws a fresh window and fresh cut points. With 1792 window
// starts and C(255,3) cut sets, two draws in one run coincide with
// probability below 10^-5.
func coldPlan(rng *rand.Rand) engine.Plan {
	grains := svcWindow / svcGrain
	lo := uint64(rng.Int63n(int64((svcSpace-svcWindow)/svcGrain+1))) * svcGrain
	cuts := map[uint64]bool{}
	for len(cuts) < svcShards-1 {
		cuts[1+uint64(rng.Int63n(int64(grains-1)))] = true
	}
	bounds := []uint64{lo}
	for g := uint64(1); g < grains; g++ {
		if cuts[g] {
			bounds = append(bounds, lo+g*svcGrain)
		}
	}
	bounds = append(bounds, lo+svcWindow)
	plan := engine.Plan{}
	for i := 0; i+1 < len(bounds); i++ {
		plan.Shards = append(plan.Shards, engine.ShardSpec{
			Protocol: "oracle-conn",
			Decide:   true,
			Source:   engine.SourceSpec{Kind: "gray", N: svcN, Lo: bounds[i], Hi: bounds[i+1]},
		})
	}
	return plan
}

// requestStream yields the seeded request sequence one request at a time,
// so memory grows with the requests sent rather than with a guess of the
// rate. Request i is the same for a given seed whichever client takes it.
type requestStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	hot     engine.Plan
	hotBody []byte
}

func newRequestStream(seed int64) (*requestStream, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := coldPlan(rng)
	body, err := json.Marshal(hot)
	if err != nil {
		return nil, fmt.Errorf("encode hot plan: %w", err)
	}
	return &requestStream{rng: rng, hot: hot, hotBody: body}, nil
}

// next returns the next request in submission order.
func (s *requestStream) next() (svcRequest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Float64() < svcHot {
		return svcRequest{Hot: true, Plan: s.hot, Body: s.hotBody}, nil
	}
	p := coldPlan(s.rng)
	body, err := json.Marshal(p)
	if err != nil {
		return svcRequest{}, fmt.Errorf("encode cold plan: %w", err)
	}
	return svcRequest{Plan: p, Body: body}, nil
}
