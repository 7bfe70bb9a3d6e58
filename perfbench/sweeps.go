package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"refereenet/internal/canon"
	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

// phase is what one timed stretch of a workload did. ops are the latencies
// of every operation a client issued (unit round trips, HTTP requests);
// execs the latencies of the operations that executed a plan (whole sweeps,
// cold requests).
type phase struct {
	wall, cpu          time.Duration
	evals, units, jobs uint64
	ops, execs         []time.Duration
	attempted, failed  int
	firstErr           error
	// chunks cut the phase into consecutive stretches of completed work
	// (a sweep, or a run of requests); the throughput metrics are medians
	// over them, so a stall that hits a few chunks does not move them.
	chunks []chunk

	// sweep workloads only
	reports []sweep.SweepReport
	walls   []time.Duration
	opUnits []int // plan index of each op
	// svc-mix only: cache-hit latencies and the /metrics deltas
	hits    []time.Duration
	service map[string]float64
}

func (p *phase) fail(n int, err error) {
	p.failed += n
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// chunk is one stretch of a phase: its wall time and the jobs, units and
// evaluations completed in it.
type chunk struct {
	wall               time.Duration
	jobs, units, evals float64
}

// rate is the median over the phase's chunks of what each completed per
// second.
func (p *phase) rate(of func(chunk) float64) float64 {
	rs := make([]float64, 0, len(p.chunks))
	for _, c := range p.chunks {
		rs = append(rs, of(c)/c.wall.Seconds())
	}
	return median(rs)
}

// workload is one named benchmark scenario.
type workload interface {
	// setup brings the system up: what setup_s times, in a fresh process.
	setup() error
	// prepare builds oracles and warms caches, outside every timing.
	prepare() error
	// run drives the system until deadline (at least one whole job).
	run(deadline time.Time, rec *Recorder, root int64) *phase
	// layers measures the per-layer metrics after a traced phase.
	layers(traced *phase, untraced *phase, rec *Recorder, root int64, m metrics) error
	close()
}

// sweepWorkload runs one plan over and over through a 2-slot coordinator
// dialing two loopback daemons.
type sweepWorkload struct {
	seed   int64
	base   []engine.ShardSpec
	canonN int // > 0: the plan's source needs this class table
	// probeManifest makes the traced run time the plan with a checkpoint
	// manifest. The timed runs go without one: its fsync per unit made the
	// spread between runs follow the host's disk.
	probeManifest bool
	evals         uint64
	check         func(engine.BatchStats) error
	tmp           string
	tableTime     time.Duration
	manifests     int

	plan engine.Plan
	fl   *fleet
	tr   *timedTransport
}

const slots = 2

func (w *sweepWorkload) setup() error {
	if w.canonN > 0 {
		t := time.Now()
		if _, err := canon.Classes(w.canonN); err != nil {
			return err
		}
		w.tableTime = time.Since(t)
	}
	fl, err := startFleet(slots)
	if err != nil {
		return err
	}
	w.fl = fl
	w.tr = newTimedTransport(fl.addrs, w.seed)
	c, err := w.tr.Dial()
	if err != nil {
		return fmt.Errorf("first handshake: %w", err)
	}
	return c.Close()
}

func (w *sweepWorkload) prepare() error {
	w.plan = shuffled(w.base, w.seed)
	warm := engine.Plan{Shards: w.plan.Shards[:min(8, len(w.plan.Shards))]}
	if _, err := w.sweep(warm, false); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	w.tr.take()
	return nil
}

// sweep runs plan once, checkpointing to a fresh manifest file if asked.
func (w *sweepWorkload) sweep(plan engine.Plan, manifest bool) (sweep.SweepReport, error) {
	opts := sweep.Options{Transport: w.tr, Workers: slots, Retries: 2, Seed: w.seed}
	if manifest {
		w.manifests++
		opts.Manifest = filepath.Join(w.tmp, fmt.Sprintf("manifest-%d-%d", os.Getpid(), w.manifests))
		defer os.Remove(opts.Manifest)
	}
	return sweep.Run(plan, opts)
}

func (w *sweepWorkload) run(deadline time.Time, rec *Recorder, root int64) *phase {
	w.tr.rec = rec
	defer func() { w.tr.rec = nil }()
	ph := &phase{}
	cpu0, t0 := cpuTime(), time.Now()
	for sweeps := 0; sweeps == 0 || time.Now().Before(deadline); sweeps++ {
		span := rec.Start("sweep.Run", root)
		w.tr.parent.Store(span)
		start := time.Now()
		rep, err := w.sweep(w.plan, false)
		wall := time.Since(start)
		rec.End(span)
		units := len(w.plan.Shards)
		ph.attempted += units
		ph.reports = append(ph.reports, rep)
		ph.walls = append(ph.walls, wall)
		if err == nil {
			err = w.check(rep.Stats)
		}
		if err != nil {
			ph.fail(units, err)
			continue
		}
		ph.jobs++
		ph.evals += w.evals
		ph.units += uint64(units)
		ph.execs = append(ph.execs, wall)
		ph.chunks = append(ph.chunks, chunk{wall, 1, float64(units), float64(w.evals)})
	}
	ph.wall, ph.cpu = time.Since(t0), cpuTime()-cpu0
	ph.ops, ph.opUnits = w.tr.take()
	return ph
}

func (w *sweepWorkload) close() {
	if w.fl != nil {
		w.fl.Close()
	}
}

// expectStats builds a gate comparing a sweep's stats field by field.
func expectStats(want engine.BatchStats) func(engine.BatchStats) error {
	return func(got engine.BatchStats) error {
		if got != want {
			return fmt.Errorf("wrong answer: got %+v, want %+v", got, want)
		}
		return nil
	}
}

// expectCounts gates the labelled-graph and accepted counts.
func expectCounts(graphs, accepted uint64) func(engine.BatchStats) error {
	return func(got engine.BatchStats) error {
		if got.Graphs != graphs || got.Accepted != accepted || got.Rejected != graphs-accepted || got.Errors != 0 {
			return fmt.Errorf("wrong answer: got graphs=%d accepted=%d rejected=%d errors=%d, want graphs=%d accepted=%d",
				got.Graphs, got.Accepted, got.Rejected, got.Errors, graphs, accepted)
		}
		return nil
	}
}

// rankUnits cuts [0, 2^C(n,2)) into units equal gray shards.
func rankUnits(protocol string, decide bool, n, units int) []engine.ShardSpec {
	total := uint64(1) << uint(n*(n-1)/2)
	var out []engine.ShardSpec
	for _, r := range engine.SplitRange(0, total, units) {
		out = append(out, engine.ShardSpec{Protocol: protocol, Decide: decide,
			Source: engine.SourceSpec{Kind: "gray", N: n, Lo: r[0], Hi: r[1]}})
	}
	return out
}

// classUnits cuts the n-vertex class table into units shards. The table
// size is A000088(n), pinned here so building a plan never builds a table.
func classUnits(protocol string, decide bool, n int, classes uint64, units int) []engine.ShardSpec {
	var out []engine.ShardSpec
	for _, r := range engine.SplitRange(0, classes, units) {
		out = append(out, engine.ShardSpec{Protocol: protocol, Decide: decide,
			Source: engine.SourceSpec{Kind: "canon", N: n, Lo: r[0], Hi: r[1]}})
	}
	return out
}

const (
	a001187n8  = 251548592   // connected labelled graphs on 8 vertices
	a000088n9  = 274668      // graphs on 9 vertices up to isomorphism
	diam3n9    = 61417339232 // labelled 9-vertex graphs of diameter ≤ 3
	grayUnits  = 64
	stormUnits = 8192
	canonUnits = 32
	canonN     = 9
	stormN     = 7
	grayFleetN = 8
)

func newGrayFleet(seed int64) workload {
	return &sweepWorkload{
		seed:  seed,
		base:  rankUnits("oracle-conn", true, grayFleetN, grayUnits),
		evals: 1 << 28,
		check: expectCounts(1<<28, a001187n8),
	}
}

// unitStorm's gate is one direct ExecuteShard over the whole range, so its
// check is filled in by prepare.
type unitStorm struct{ *sweepWorkload }

func newUnitStorm(seed int64, tmp string) workload {
	return unitStorm{&sweepWorkload{
		seed:          seed,
		base:          rankUnits("hash16", false, stormN, stormUnits),
		probeManifest: true,
		evals:         1 << 21,
		tmp:           tmp,
	}}
}

func (w unitStorm) prepare() error {
	want, err := engine.ExecuteShard(engine.ShardSpec{Protocol: "hash16",
		Source: engine.SourceSpec{Kind: "gray", N: stormN, Lo: 0, Hi: 1 << 21}})
	if err != nil {
		return fmt.Errorf("direct ExecuteShard: %w", err)
	}
	w.check = expectStats(want)
	return w.sweepWorkload.prepare()
}

func newCanonScalar(seed int64) workload {
	return &sweepWorkload{
		seed:   seed,
		base:   classUnits("oracle-diam3", true, canonN, a000088n9, canonUnits),
		canonN: canonN,
		evals:  a000088n9,
		check:  expectCounts(1<<36, diam3n9),
	}
}

// tmpDir holds the benchmark's scratch files, inside the build directory.
func tmpDir(root string) string { return filepath.Join(root, ".bench_build", "tmp") }
