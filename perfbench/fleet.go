package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"refereenet/internal/sweep"
)

// fleet is the loopback daemon set the sweep workloads dial: sweep.Serve
// daemons hosted in this process, one goroutine each.
type fleet struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(daemons int) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	for i := 0; i < daemons; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		f.addrs = append(f.addrs, l.Addr().String())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			sweep.Serve(l, sweep.ServeOptions{Context: ctx})
		}()
	}
	return f, nil
}

// Close drains every daemon and waits for each to return.
func (f *fleet) Close() {
	f.cancel()
	f.wg.Wait()
}

// timedTransport is sweep.TCP with a stopwatch: every unit round trip is
// timed (the op latency of the sweep workloads) and, when tracing, recorded
// as a span under the sweep that dispatched it. Slots spread over the
// daemons as sweep.TCP's own pinning would, and all share one Breaker.
type timedTransport struct {
	addrs   []string
	seed    int64
	breaker *sweep.Breaker
	rec     *Recorder    // nil when tracing is off
	parent  atomic.Int64 // span of the sweep in flight
	dials   atomic.Int64

	// The round trips kept for percentiles: a uniform sample of at most
	// maxRTTs (reservoir sampling), so memory does not grow with
	// throughput.
	mu   sync.Mutex
	seen int64
	rng  *rand.Rand
	rtts []time.Duration
	ids  []int // unit ID of each kept round trip
}

const maxRTTs = 1 << 17

func newTimedTransport(addrs []string, seed int64) *timedTransport {
	return &timedTransport{addrs: addrs, seed: seed, rng: rand.New(rand.NewSource(seed)),
		breaker: sweep.NewBreaker(5, 500*time.Millisecond)}
}

func (t *timedTransport) Name() string { return fmt.Sprintf("timed tcp %v", t.addrs) }

func (t *timedTransport) Dial() (sweep.Conn, error) {
	start := int(t.dials.Add(1)-1) % len(t.addrs)
	tcp := &sweep.TCP{Addrs: t.addrs, Start: start, Seed: t.seed, Breaker: t.breaker}
	c, err := tcp.Dial()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: t}, nil
}

// take returns the round trips timed since the last call, with their unit
// IDs, and forgets them.
func (t *timedTransport) take() ([]time.Duration, []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rtts, ids := t.rtts, t.ids
	t.rtts, t.ids, t.seen = nil, nil, 0
	return rtts, ids
}

func (t *timedTransport) keep(rtt time.Duration, id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	if len(t.rtts) < maxRTTs {
		t.rtts = append(t.rtts, rtt)
		t.ids = append(t.ids, id)
	} else if j := t.rng.Int63n(t.seen); j < maxRTTs {
		t.rtts[j], t.ids[j] = rtt, id
	}
}

type timedConn struct {
	sweep.Conn
	t *timedTransport
}

func (c *timedConn) RoundTrip(u sweep.Unit) (sweep.Result, error) {
	start := time.Now()
	res, err := c.Conn.RoundTrip(u)
	end := time.Now()
	c.t.rec.Add("sweep.roundtrip", c.t.parent.Load(), start, end)
	c.t.keep(end.Sub(start), u.ID)
	return res, err
}

// Endpoint forwards the TCP connection's daemon address to the coordinator.
func (c *timedConn) Endpoint() string {
	if e, ok := c.Conn.(interface{ Endpoint() string }); ok {
		return e.Endpoint()
	}
	return ""
}
