package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"refereenet/internal/engine"
	"refereenet/internal/service"
)

// svcMix drives service.New behind a loopback HTTP listener with a closed
// loop of clients: each sends its next request only after the previous one
// completed (its job view is terminal, via ?watch=1 when not cached).
type svcMix struct {
	seed int64

	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	stream *requestStream
	blocks []engine.BatchStats // per svcGrain block of the n = 7 rank space
}

const svcClients = 2

// svcChunk is how many consecutive completions make one chunk of the
// throughput medians: a few hundred milliseconds of requests.
const svcChunk = 256

func newSvcMix(seed int64) workload { return &svcMix{seed: seed} }

func (w *svcMix) setup() error {
	w.srv = service.New(service.Config{Parallel: 2, MaxJobs: 2, CacheSize: 256})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(l) }()
	w.base = "http://" + l.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}
	resp, err := w.client.Get(w.base + "/healthz")
	if err != nil {
		return fmt.Errorf("service not up: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

func (w *svcMix) prepare() error {
	var err error
	if w.stream, err = newRequestStream(w.seed); err != nil {
		return err
	}
	// The oracle: every svcGrain block of the rank space executed directly,
	// once. A plan's answer is the merge of the blocks it covers.
	for lo := uint64(0); lo < svcSpace; lo += svcGrain {
		st, err := engine.ExecuteShard(engine.ShardSpec{Protocol: "oracle-conn", Decide: true,
			Source: engine.SourceSpec{Kind: "gray", N: svcN, Lo: lo, Hi: lo + svcGrain}})
		if err != nil {
			return fmt.Errorf("oracle block %d: %w", lo, err)
		}
		w.blocks = append(w.blocks, st)
	}
	// Spot-check the block oracle against whole-shard execution.
	for _, spec := range w.coldShards(64) {
		direct, err := engine.ExecuteShard(spec)
		if err != nil {
			return err
		}
		if got := w.expect(engine.Plan{Shards: []engine.ShardSpec{spec}}); got != direct {
			return fmt.Errorf("block oracle %+v disagrees with ExecuteShard %+v", got, direct)
		}
	}
	// Warm-up: the hot plan enters the cache, connections open.
	hot := svcRequest{Hot: true, Plan: w.stream.hot, Body: w.stream.hotBody}
	for i := 0; i < 4; i++ {
		if _, err := w.do(hot, nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// coldShards returns the first n shards of the cold plans in a copy of the
// seed's request stream.
func (w *svcMix) coldShards(n int) []engine.ShardSpec {
	st, err := newRequestStream(w.seed)
	if err != nil {
		panic(err) // the same stream already encoded once
	}
	var out []engine.ShardSpec
	for len(out) < n {
		r, err := st.next()
		if err != nil {
			panic(err)
		}
		if !r.Hot {
			out = append(out, r.Plan.Shards...)
		}
	}
	return out[:n]
}

// expect is the direct merge of the plan's graphs.
func (w *svcMix) expect(p engine.Plan) engine.BatchStats {
	var st engine.BatchStats
	for _, sh := range p.Shards {
		for lo := sh.Source.Lo; lo < sh.Source.Hi; lo += svcGrain {
			st.Merge(w.blocks[lo/svcGrain])
		}
	}
	return st
}

// jobView is the part of service.JobView the client reads.
type jobView struct {
	ID        string             `json:"id"`
	Status    string             `json:"status"`
	Stats     *engine.BatchStats `json:"stats"`
	Error     string             `json:"error"`
	Cached    bool               `json:"cached"`
	Coalesced bool               `json:"coalesced"`
}

// outcome is one finished request.
type outcome struct {
	lat  time.Duration
	view jobView
	err  error
}

// do submits one request and follows its job to the terminal state.
func (w *svcMix) do(r svcRequest, rec *Recorder, parent int64) (outcome, error) {
	start := time.Now()
	span := rec.Start("svc.request", parent)
	defer rec.End(span)
	post := rec.Start("svc.post", span)
	resp, err := w.client.Post(w.base+"/jobs", "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return outcome{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.End(post)
	var o outcome
	if err != nil {
		return o, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return o, fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &o.view); err != nil {
		return o, fmt.Errorf("POST /jobs: %w", err)
	}
	if o.view.Status != "done" && o.view.Status != "failed" {
		watch := rec.Start("svc.watch", span)
		o.view, err = w.watch(o.view.ID)
		rec.End(watch)
		if err != nil {
			return o, err
		}
	}
	o.lat = time.Since(start)
	if o.view.Status != "done" || o.view.Stats == nil {
		return o, fmt.Errorf("job %s %s: %s", o.view.ID, o.view.Status, o.view.Error)
	}
	return o, nil
}

// watch reads GET /jobs/{id}?watch=1 until the stream's terminal snapshot.
func (w *svcMix) watch(id string) (jobView, error) {
	resp, err := w.client.Get(w.base + "/jobs/" + id + "?watch=1")
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var v jobView
		if err := dec.Decode(&v); err != nil {
			return jobView{}, fmt.Errorf("watch %s: %w", id, err)
		}
		if v.Status == "done" || v.Status == "failed" {
			io.Copy(io.Discard, resp.Body)
			return v, nil
		}
	}
}

// tally folds the requests of one phase in as they complete. It keeps one
// duration per request and no more, so that what the benchmark holds does
// not move peak_rss_mb with throughput: each answer is compared with the
// direct merge of its plan by the client that received it (a comparison of
// two small structs), and completions fold into chunks as they happen.
type tally struct {
	mu   sync.Mutex
	ph   *phase
	prev time.Time // end of the last chunk
	cur  chunk
}

func (t *tally) add(lat time.Duration, hit bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.ph
	ph.attempted++
	if err != nil {
		ph.fail(1, err)
		return
	}
	ph.jobs++
	ph.ops = append(ph.ops, lat)
	t.cur.jobs++
	if hit {
		ph.hits = append(ph.hits, lat)
	} else {
		ph.evals += svcWindow
		ph.units += svcShards
		ph.execs = append(ph.execs, lat)
		t.cur.units += svcShards
		t.cur.evals += float64(svcWindow)
	}
	if t.cur.jobs == svcChunk {
		now := time.Now()
		t.cur.wall, t.prev = now.Sub(t.prev), now
		ph.chunks = append(ph.chunks, t.cur)
		t.cur = chunk{}
	}
}

func (w *svcMix) run(deadline time.Time, rec *Recorder, root int64) *phase {
	before, err := w.scrape()
	if err != nil {
		return &phase{attempted: 1, failed: 1, firstErr: err}
	}
	ph := &phase{}
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	t := &tally{ph: ph, prev: t0}
	for range svcClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := w.stream.next()
				var o outcome
				if err == nil {
					o, err = w.do(r, rec, root)
				}
				if err == nil {
					if want := w.expect(r.Plan); *o.view.Stats != want {
						err = fmt.Errorf("job %s: wrong answer %+v, want %+v", o.view.ID, *o.view.Stats, want)
					}
				}
				t.add(o.lat, r.Hot || o.view.Cached || o.view.Coalesced, err)
			}
		}()
	}
	wg.Wait()
	ph.wall, ph.cpu = time.Since(t0), cpuTime()-cpu0
	after, err := w.scrape()
	if err != nil {
		ph.fail(1, err)
	}
	ph.service = map[string]float64{}
	for k, v := range after {
		ph.service[k] = v - before[k]
	}
	return ph
}

func (w *svcMix) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.hs != nil {
		w.hs.Close()
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

// scrape reads the service's /metrics counters and histogram sums.
func (w *svcMix) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimPrefix(name, "refereeservice_")] = v
	}
	return out, sc.Err()
}
