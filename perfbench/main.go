// Command perfbench is the repository's benchmark: it runs one named
// workload through the sweep stack or the job service for a fixed time,
// checks every answer, and prints one JSON result line. With -trace 0 the
// result carries the end-to-end metrics; with -trace 1 it carries the
// per-layer metrics, measured by timing calls into each layer's public
// functions and recording spans around them. See README.md.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload gray-fleet --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	// Protocol and source registrations the workloads resolve.
	_ "refereenet/internal/collide"
	_ "refereenet/internal/core"
)

// workloads maps each workload name to its constructor and the number of
// fresh processes its set-up time is sampled from.
var workloads = map[string]struct {
	make   func(seed int64, root string) workload
	probes int
}{
	"gray-fleet":   {func(s int64, _ string) workload { return newGrayFleet(s) }, 21},
	"unit-storm":   {func(s int64, r string) workload { return newUnitStorm(s, tmpDir(r)) }, 21},
	"canon-scalar": {func(s int64, _ string) workload { return newCanonScalar(s) }, 3},
	"svc-mix":      {func(s int64, _ string) workload { return newSvcMix(s) }, 21},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository root")
	probe := flag.Bool("probe-setup", false, "set the workload up, print ready, exit (set-up timing)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds ≥ 1, -trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(tmpDir(*root), 0o755); err != nil {
		fatal(err)
	}
	w := wl.make(*seed, *root)
	if *probe {
		err := w.setup()
		if err == nil {
			fmt.Println("ready")
		}
		w.close()
		if err != nil {
			fatal(err)
		}
		return
	}
	// A hung run must still end, without a result line.
	limit := 2*time.Duration(*seconds)*time.Second + 2*time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", limit)
		os.Exit(3)
	})
	res, rec, err := bench(w, *name, *seed, *root, time.Duration(*seconds)*time.Second, *trace == 1, wl.probes)
	if err != nil {
		fatal(err)
	}
	res.Provenance = provenance(*root)
	res.Workload, res.Seed, res.Seconds, res.Trace = *name, *seed, *seconds, *trace
	if err := save(*root, res, rec); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the full record of one run, saved to its own file; summary is
// the line printed last.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      int                `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailRatio  float64            `json:"fail_ratio"`
	Error      string             `json:"error,omitempty"`
	Metrics    map[string]value   `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	ExecMS     []float64          `json:"exec_ms,omitempty"` // every execs sample, in order
	SelfMS     map[string]float64 `json:"self_ms,omitempty"` // traced: self time per span name
	Provenance map[string]string  `json:"provenance"`
}

func (r result) summary() any {
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// bench runs one workload: set-up sampled in fresh processes, set-up and
// preparation here, then the timed phase (traced or not).
func bench(w workload, name string, seed int64, root string, dur time.Duration, traced bool, probes int) (result, *Recorder, error) {
	res := result{Metrics: map[string]value{}, Samples: map[string]int{}}
	var setups []float64
	if !traced {
		var err error
		if setups, err = setupSamples(name, seed, root, probes); err != nil {
			return res, nil, err
		}
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return res, nil, fmt.Errorf("set-up: %w", err)
	}
	// From here on all Go code runs on one thread. On a host of two shared
	// vCPUs, a second thread tied every garbage collection and every
	// hand-off between daemon, coordinator and client to both vCPUs being
	// scheduled at once, so a stall on either one stretched the whole run;
	// with one, the timings follow the work. Set-up keeps every CPU, as a
	// daemon starting up would.
	runtime.GOMAXPROCS(1)
	if err := w.prepare(); err != nil {
		return res, nil, fmt.Errorf("prepare: %w", err)
	}
	var ph *phase
	m := metrics{}
	var rec *Recorder
	if traced {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead. Then the layer probes.
		untraced := w.run(time.Now().Add(dur/2), nil, 0)
		rec = NewRecorder(fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
		root := rec.Start(name, 0)
		ph = w.run(time.Now().Add(dur/2), rec, root)
		if err := w.layers(ph, untraced, rec, root, m); err != nil {
			return res, nil, fmt.Errorf("layers: %w", err)
		}
		rec.End(root)
		perJob := func(p *phase) float64 { return float64(p.wall) / float64(max(p.jobs, 1)) }
		m["trace.overhead_ratio"] = perJob(ph) / perJob(untraced)
		ph.attempted += untraced.attempted
		ph.failed += untraced.failed
		if ph.firstErr == nil {
			ph.firstErr = untraced.firstErr
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = value{m[d.name], d.unit}
		}
		res.Samples["traced_ops"] = len(ph.ops)
		res.SelfMS = map[string]float64{}
		for name, d := range SelfByName(rec.Spans()) {
			res.SelfMS[name] = float64(d) / 1e6
		}
	} else {
		ph = w.run(time.Now().Add(dur), nil, 0)
		opMS, execMS := ms(ph.ops), ms(ph.execs)
		m["setup_s"] = median(setups)
		m["evals_per_s"] = ph.rate(func(c chunk) float64 { return c.evals })
		m["units_per_s"] = ph.rate(func(c chunk) float64 { return c.units })
		m["jobs_per_s"] = ph.rate(func(c chunk) float64 { return c.jobs })
		m["op_p50_ms"] = quantile(opMS, 0.5)
		m["op_p90_ms"] = quantile(opMS, 0.9)
		m["exec_p50_ms"] = quantile(execMS, 0.5)
		m["cpu_ms_per_job"] = float64(ph.cpu) / 1e6 / float64(max(ph.jobs, 1))
		m["peak_rss_mb"] = peakRSSMB()
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{m[d.name], d.unit}
		}
		res.ExecMS = ms(ph.execs)
		res.Samples["setup"] = len(setups)
		res.Samples["ops"] = len(ph.ops)
		res.Samples["execs"] = len(ph.execs)
		res.Samples["chunks"] = len(ph.chunks)
		res.Samples["ops_beyond_p90"] = len(ph.ops) - int(0.9*float64(len(ph.ops)))
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.FailRatio = float64(ph.failed) / float64(max(ph.attempted, 1))
	res.Correct = ph.failed == 0 && ph.attempted > 0 && ph.firstErr == nil
	if ph.firstErr != nil {
		res.Error = ph.firstErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench:", ph.firstErr)
	}
	return res, rec, nil
}

// setupSamples starts this binary n times in set-up-only mode, one after
// another, and times each from process start to its ready line.
func setupSamples(name string, seed int64, root string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-probe-setup", "-workload", name, "-seed", fmt.Sprint(seed), "-root", root}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		ready := time.Since(start)
		io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe said %q (%v)", line, rerr)
		}
		out = append(out, ready.Seconds())
	}
	return out, nil
}

// provenance records which machine and which code made a result.
func provenance(root string) map[string]string {
	p := map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"dirty":      "unknown",
		"source_sha": sourceHash(root),
		"time":       time.Now().UTC().Format(time.RFC3339Nano),
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err := git("rev-parse", "--short", "HEAD"); err == nil {
		p["commit"] = sha
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			p["dirty"] = fmt.Sprint(st != "")
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and module files under root, so a
// result made outside a git checkout still names the code it measured.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// save writes the full result, and the spans of a traced run, to files no
// earlier run has used.
func save(root string, res result, rec *Recorder) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s_%s_seed%d_trace%d_%d",
		time.Now().UTC().Format("20060102T150405.000000000"), res.Workload, res.Seed, res.Trace, os.Getpid()))
	f, err := os.OpenFile(base+".json", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return fmt.Errorf("save result: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	if rec != nil {
		return rec.WriteFile(base + ".spans.json")
	}
	return nil
}
