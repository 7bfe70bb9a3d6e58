package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/lanes"
	"refereenet/internal/sweep"
)

// metrics maps metric names to values.
type metrics map[string]float64

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a run with tracing off reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"evals_per_s", "1/s"},
	{"units_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"exec_p50_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports, on every workload; a layer the
// workload does not exercise reads 0. README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"collide.fill_ns_per_graph", "ns"},
	{"lanes.kernel_ns_per_graph", "ns"},
	{"engine.run_ns_per_eval", "ns"},
	{"engine.fold_ns_per_eval", "ns"},
	{"engine.shard_setup_us", "us"},
	{"canon.table_build_s", "s"},
	{"canon.next_ns_per_class", "ns"},
	{"core.decide_ns_per_class", "ns"},
	{"sweep.rtt_p50_us", "us"},
	{"sweep.rtt_p99_us", "us"},
	{"sweep.wire_us_per_unit", "us"},
	{"sweep.codec_ns_per_unit", "ns"},
	{"sweep.slot_idle_us_per_unit", "us"},
	{"sweep.manifest_us_per_unit", "us"},
	{"sweep.exec_wait_us", "us"},
	{"sweep.retries", "count"},
	{"sweep.failed_units", "count"},
	{"sweep.duplicates", "count"},
	{"service.handler_hit_us", "us"},
	{"service.fingerprint_us", "us"},
	{"service.http_us", "us"},
	{"service.job_exec_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.evictions", "count"},
	{"service.executions", "count"},
	{"service.rejected", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// probeBudget bounds how long the engine probe samples shards; each
// sampled shard is timed probeReps times and the fastest time kept, which
// sheds interference from the rest of the machine.
const (
	probeBudget = 1500 * time.Millisecond
	probeReps   = 5
)

// shardTimes is one shard's engine calls, timed one by one in the order
// ExecuteShard strings them together. source is the source drained alone;
// fused is the source with the kernel (vector path) or the protocol's local
// phase and Decide (scalar path) on every block or graph, as Batch.Run
// pairs them. The kernel or protocol is fused − source, and the fold,
// Batch.Run's own accounting, is run − fused.
type shardTimes struct {
	setup, run, exec, source, fused time.Duration
}

func (t *shardTimes) keepFastest(o shardTimes) {
	t.setup, t.run, t.exec = min(t.setup, o.setup), min(t.run, o.run), min(t.exec, o.exec)
	t.source, t.fused = min(t.source, o.source), min(t.fused, o.fused)
}

// engineProbe sums the fastest shardTimes of each sampled shard.
type engineProbe struct {
	shardTimes
	shards        int
	evals         uint64          // ranks or classes
	exec          []time.Duration // per sampled shard, in plan order
	vector, canon bool
}

func probeEngine(specs []engine.ShardSpec, rec *Recorder, parent int64) (engineProbe, error) {
	var pr engineProbe
	start := time.Now()
	for _, spec := range specs {
		if pr.shards > 0 && time.Since(start) > probeBudget {
			break
		}
		var best shardTimes
		for rep := 0; rep < probeReps; rep++ {
			t, vector, err := probeShard(spec, rec, parent)
			if err != nil {
				return pr, err
			}
			if rep == 0 {
				best = t
			}
			best.keepFastest(t)
			pr.vector = vector
		}
		pr.setup += best.setup
		pr.run += best.run
		pr.source += best.source
		pr.fused += best.fused
		pr.exec = append(pr.exec, best.exec)
		pr.shards++
		pr.evals += spec.Source.Hi - spec.Source.Lo
		pr.canon = spec.Source.Kind == "canon"
	}
	return pr, nil
}

// probeShard times one shard's engine calls.
func probeShard(spec engine.ShardSpec, rec *Recorder, parent int64) (t shardTimes, vector bool, err error) {
	span := rec.Start("engine.ExecuteShard", parent)
	t0 := time.Now()
	p, ok := engine.New(spec.Protocol, spec.Config)
	if !ok {
		return t, false, fmt.Errorf("unknown protocol %q", spec.Protocol)
	}
	src, err := engine.ResolveSource(spec.Source)
	if err != nil {
		return t, false, err
	}
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: spec.Decide, MaxN: spec.Source.N})
	t1 := time.Now()
	b.Run(src)
	t2 := time.Now()
	rec.Add("engine.shard_setup", span, t0, t1)
	rec.Add("engine.Batch.Run", span, t1, t2)
	rec.End(span)
	vector = b.Vectorized()
	b.Close()
	t.setup, t.run = t1.Sub(t0), t2.Sub(t1)

	// ExecuteShard as a daemon runs it during a sweep: beside the other
	// slot's unit.
	var wg sync.WaitGroup
	execs := make([]time.Duration, slots)
	errs := make([]error, slots)
	for i := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, errs[i] = engine.ExecuteShard(spec)
			execs[i] = time.Since(start)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return t, vector, err
	}
	for _, d := range execs {
		t.exec += d / slots
	}

	for _, fused := range []bool{false, true} {
		src, err := engine.ResolveSource(spec.Source)
		if err != nil {
			return t, vector, err
		}
		start := time.Now()
		if vector {
			drainBlocks(src.(engine.BlockSource), p, spec.Decide, fused)
		} else if err := drainGraphs(src, p, spec, fused); err != nil {
			return t, vector, err
		}
		if fused {
			t.fused = time.Since(start)
		} else {
			t.source = time.Since(start)
		}
	}
	return t, vector, nil
}

// drainBlocks pulls every block through one reused block, running the
// protocol's kernel on each when fused.
func drainBlocks(src engine.BlockSource, p engine.Local, decide, fused bool) {
	var blk lanes.Block
	if !fused {
		for src.NextBlock(&blk) {
		}
		return
	}
	kern := p.(engine.VectorLocal).VectorKernel(decide)
	var st lanes.BlockStats // reused, as Batch reuses its scratch
	for src.NextBlock(&blk) {
		st = lanes.BlockStats{}
		kern(&blk, &st)
	}
}

// drainGraphs pulls every graph, evaluating the protocol on each when
// fused: the local phase the way Batch.Run runs it (the message arena for
// BufferedLocal protocols, engine.Fill otherwise), then the referee's
// Decide.
func drainGraphs(src engine.Source, p engine.Local, spec engine.ShardSpec, fused bool) error {
	if !fused {
		for src.Next() != nil {
		}
		return nil
	}
	d, ok := p.(engine.Decider)
	if !ok || !spec.Decide {
		return fmt.Errorf("%s: the scalar probe needs a decider", spec.Protocol)
	}
	buffered, _ := p.(engine.BufferedLocal)
	msgs := make([]bits.String, spec.Source.N)
	var nbrs []int
	var arena []byte
	var w bits.Writer
	for g := src.Next(); g != nil; g = src.Next() {
		n := g.N()
		if buffered == nil {
			nbrs = engine.Fill(g, p, msgs[:n], nbrs)
		} else {
			arena = arena[:0]
			for v := 1; v <= n; v++ {
				nbrs = g.AppendNeighbors(v, nbrs[:0])
				w.Reset()
				buffered.AppendLocalMessage(&w, n, v, nbrs)
				msgs[v-1], arena = w.AppendTo(arena)
			}
		}
		d.Decide(n, msgs[:n])
	}
	return nil
}

func (pr engineProbe) report(m metrics) {
	per := func(d time.Duration) float64 { return float64(d) / float64(pr.evals) }
	m["engine.run_ns_per_eval"] = per(pr.run)
	m["engine.fold_ns_per_eval"] = per(pr.run - pr.fused)
	m["engine.shard_setup_us"] = float64(pr.setup) / 1e3 / float64(pr.shards)
	switch {
	case pr.vector:
		m["collide.fill_ns_per_graph"] = per(pr.source)
		m["lanes.kernel_ns_per_graph"] = per(pr.fused - pr.source)
	case pr.canon:
		m["canon.next_ns_per_class"] = per(pr.source)
		m["core.decide_ns_per_class"] = per(pr.fused - pr.source)
	}
}

// codecNS times the JSON of one Unit and its Result, both ways.
func codecNS(specs []engine.ShardSpec, stats engine.BatchStats) (float64, error) {
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i, spec := range specs {
			ub, err := json.Marshal(sweep.Unit{ID: i, Spec: spec})
			if err != nil {
				return 0, err
			}
			var u sweep.Unit
			if err := json.Unmarshal(ub, &u); err != nil {
				return 0, err
			}
			rb, err := json.Marshal(sweep.Result{ID: i, Stats: stats})
			if err != nil {
				return 0, err
			}
			var res sweep.Result
			if err := json.Unmarshal(rb, &res); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start)) / float64(reps*len(specs)), nil
}

func (w *sweepWorkload) layers(traced, untraced *phase, rec *Recorder, root int64, m metrics) error {
	span := rec.Start("layers", root)
	defer rec.End(span)
	pr, err := probeEngine(w.plan.Shards, rec, span)
	if err != nil {
		return err
	}
	pr.report(m)
	m["canon.table_build_s"] = w.tableTime.Seconds()

	rtts := ms(traced.ops)
	m["sweep.rtt_p50_us"] = quantile(rtts, 0.5) * 1e3
	m["sweep.rtt_p99_us"] = quantile(rtts, 0.99) * 1e3
	// Wire time compares each sampled unit's round trips with its own
	// ExecuteShard: unit costs differ across the rank space.
	byUnit := map[int][]float64{}
	for i, id := range traced.opUnits {
		byUnit[id] = append(byUnit[id], float64(traced.ops[i])/1e3)
	}
	var wire []float64
	for i, d := range pr.exec {
		if r := byUnit[i]; len(r) > 0 {
			wire = append(wire, mean(r)-float64(d)/1e3)
		}
	}
	m["sweep.wire_us_per_unit"] = mean(wire)
	var busy, held time.Duration
	for _, d := range traced.ops {
		busy += d
	}
	for _, d := range traced.walls {
		held += d * slots
	}
	units := len(w.plan.Shards) * len(traced.walls)
	m["sweep.slot_idle_us_per_unit"] = float64(held-busy) / 1e3 / float64(units)
	var st engine.BatchStats
	for _, rep := range traced.reports {
		m["sweep.retries"] += float64(rep.Retries)
		m["sweep.failed_units"] += float64(rep.Failed)
		m["sweep.duplicates"] += float64(rep.Duplicates)
		st = rep.Stats
	}
	if m["sweep.codec_ns_per_unit"], err = codecNS(w.plan.Shards, st); err != nil {
		return err
	}
	if w.probeManifest {
		// The same plan with a checkpoint manifest, against the untraced
		// sweeps without one.
		var with time.Duration
		const reps = 3
		for i := 0; i < reps; i++ {
			t := time.Now()
			if _, err := w.sweep(w.plan, true); err != nil {
				return err
			}
			with += time.Since(t)
		}
		w.tr.take()
		without := mean(ms(untraced.walls))
		m["sweep.manifest_us_per_unit"] = (float64(with)/1e6/reps - without) * 1e3 / float64(len(w.plan.Shards))
	}
	return nil
}

func (w *svcMix) layers(traced, untraced *phase, rec *Recorder, root int64, m metrics) error {
	span := rec.Start("layers", root)
	defer rec.End(span)
	specs := w.coldShards(256)
	pr, err := probeEngine(specs, rec, span)
	if err != nil {
		return err
	}
	pr.report(m)

	// Executor.Execute against ExecuteShard on a one-worker pool: what the
	// pool's hand-off adds to a unit.
	ex := sweep.NewExecutor(1)
	defer ex.Close()
	var wait time.Duration
	const waitUnits = 64
	for i, spec := range specs[:waitUnits] {
		t := time.Now()
		if res := ex.Execute(sweep.Unit{ID: i, Spec: spec}); res.Err != "" {
			return fmt.Errorf("execute: %s", res.Err)
		}
		t1 := time.Now()
		if _, err := engine.ExecuteShard(spec); err != nil {
			return err
		}
		wait += t1.Sub(t) - time.Since(t1)
	}
	m["sweep.exec_wait_us"] = float64(wait) / 1e3 / waitUnits

	// A cache hit answered in process, without the HTTP stack.
	body := w.stream.hotBody
	h := w.srv.Handler()
	const hitReps = 2000
	handler := make([]float64, hitReps)
	for i := range handler {
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rr, req)
		handler[i] = float64(time.Since(t)) / 1e3
		if rr.Code != http.StatusOK {
			return fmt.Errorf("in-process hit: %d %s", rr.Code, rr.Body.String())
		}
	}
	m["service.handler_hit_us"] = median(handler)
	t := time.Now()
	for i := 0; i < hitReps; i++ {
		if _, err := w.stream.hot.Fingerprint(); err != nil {
			return err
		}
	}
	m["service.fingerprint_us"] = float64(time.Since(t)) / 1e3 / hitReps
	m["service.http_us"] = median(ms(traced.hits))*1e3 - m["service.handler_hit_us"]

	s := traced.service
	if n := s["job_latency_seconds_count"]; n > 0 {
		m["service.job_exec_ms"] = s["job_latency_seconds_sum"] / n * 1e3
		m["service.queue_wait_ms"] = mean(ms(traced.execs)) - m["service.job_exec_ms"]
	}
	if asked := s["cache_hits_total"] + s["cache_misses_total"]; asked > 0 {
		m["service.hit_ratio"] = s["cache_hits_total"] / asked
	}
	m["service.coalesced"] = s["coalesced_total"]
	m["service.evictions"] = s["cache_evictions_total"]
	m["service.executions"] = s["executions_total"]
	m["service.rejected"] = s["jobs_rejected_total"]
	m["sweep.retries"] = s["unit_retries_total"]
	m["sweep.failed_units"] = s["unit_failures_total"]
	return nil
}
