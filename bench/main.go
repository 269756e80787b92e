// Command bench is the repository's benchmark: one rerunnable protocol for
// the paper's start-up, warm-up and peak numbers and for the drivers that
// re-run programs many times (the detection matrix and fuzzing campaigns),
// with every wall clock split into layers by a separate traced run.
//
// Usage:
//
//	bash bench/run.sh -workload cold-run -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload matrix -seed 1 -trace 1 -json m.json
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -compare a.json b.json
//
// Each workload runs in its own process: a timed set-up (repeated, median
// reported), then five timed rounds that together last -seconds, then the
// workload's correctness checks. With -trace 1 a fixed slice of the
// workload is then replayed through the layer calls twice, untraced and
// traced, and the per-layer metrics come from the traced replay. The last
// line of standard output is one JSON object: correct, attempted, failed
// and the metrics of the mode (end-to-end without tracing, per-layer with).
// See README.md for the workloads, the metrics and their calibration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	sulong "repro"
)

// rounds is the number of timed rounds per run; throughputs are their
// median.
const rounds = 5

// Set-up repetition bounds: a short set-up (cold-run's hello world takes
// about 10 ms) runs a few hundred times, a long one (matrix, 0.7 s) three
// times; setup_s is the median.
const (
	minSetupTime = 2 * time.Second
	maxSetups    = 400
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space: campaign journals, trace files
	traceOut string
	jsonOut  string
	// small shrinks set-up repetitions and replay sizes for the smoke test.
	small bool
}

// roundResult is what one timed round did.
type roundResult struct {
	ops int // work items completed (programs, cells, iterations)
	// rate overrides ops/wall as the round's throughput when the workload
	// aggregates differently (peak: geomean over program × tool pairs).
	rate float64
	// requests holds the latency of each request a user waits for, grouped;
	// request_ms_p50 is the geomean over groups of each group's median.
	requests  map[string][]time.Duration
	attempted int
	rejects   int // programs the front end refused (campaign)
	failures  []string
	wall      time.Duration // set by the runner
	// alloc is the heap bytes allocated by allocOps work items; the runner
	// measures the whole round unless the workload measured a steadier
	// subset itself (peak: full sweeps only).
	alloc    uint64
	allocOps int
}

// workload is one benchmark workload. The runner resets the facade's caches
// before every set-up.
type workload interface {
	// workers is the number of load-generating goroutines the rounds use.
	workers() int
	// setup prepares the rounds; it is timed and repeated.
	setup() error
	// round does closed-loop work until deadline.
	round(deadline time.Time) roundResult
	// finish runs the after-round correctness checks and returns the
	// workload's named metrics.
	finish(rs []roundResult) ([]metric, []string)
	// replay re-runs a fixed slice of the workload through the layer calls
	// on st and returns every difference from the untraced driver.
	replay(st *stack) []string
}

var workloadNames = []string{"cold-run", "matrix", "peak", "campaign"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "cold-run":
		return newColdRun(o), nil
	case "matrix":
		return newMatrix(o), nil
	case "peak":
		return newPeak(o), nil
	case "campaign":
		return newCampaign(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames, ", "))
}

// report is a run's full record, written by -json and read by -compare.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	compare := flag.Bool("compare", false, "compare two -json reports: bench -compare a.json b.json")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed rounds together, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: add the traced layer replay and report per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory (journals, traces)")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file (default <workdir>/trace-<workload>.json)")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full report to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o, traceFlag))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	printResultLine(os.Stdout, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, one after another,
// and reports whether all of them passed.
func runAll(o options, traceFlag int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(traceFlag), "-workdir", o.workdir}
		if o.jsonOut != "" {
			args = append(args, "-json", strings.TrimSuffix(o.jsonOut, ".json")+"-"+name+".json")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// run executes one workload and prints its human-readable report to w.
func run(o options, w io.Writer) (*report, error) {
	wl, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  GOMAXPROCS %d  GODEBUG %q\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), os.Getenv("GODEBUG"))

	// Set-up is repeated — at least minSetups times and for at least
	// minSetupTime — and reported as the median.
	minSetups, minTime := 3, minSetupTime
	if o.small {
		minSetups, minTime = 1, 0
	}
	var setups []float64
	for start := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(start) < minTime); {
		sulong.ResetCache()
		sulong.ResetCodeCache()
		runtime.GC()
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before := snapshotCaches()
	rs := make([]roundResult, rounds)
	per := time.Duration(o.seconds / rounds * float64(time.Second))
	for i := range rs {
		t0, a0 := time.Now(), allocatedBytes()
		rs[i] = wl.round(t0.Add(per))
		rs[i].wall = time.Since(t0)
		if rs[i].allocOps == 0 {
			rs[i].alloc, rs[i].allocOps = allocatedBytes()-a0, rs[i].ops
		}
	}
	after := snapshotCaches()
	// Peak memory of set-up and rounds; the checks and the replay come after.
	rss := maxRSSMB()

	var failures []string
	for _, r := range rs {
		rep.Attempted += r.attempted
		failures = append(failures, r.failures...)
	}
	rep.Metrics = append(rep.Metrics, endToEnd(setups, rs)...)
	named, checkFailures := wl.finish(rs)
	failures = append(failures, checkFailures...)
	rep.Metrics = append(rep.Metrics, named...)
	// The resident-set high-water mark depends on where garbage collections
	// fall and on how much memory the runtime has returned to the system,
	// so it is reported, not bounded: alloc_mb_per_op is the memory metric
	// with a bound.
	rep.Metrics = append(rep.Metrics, single("max_rss_mb", "MB", roleNamed, "lower", rss, 1))

	if o.trace {
		layer, parityFailures, err := traceReplay(o, wl, w, rs, before, after)
		if err != nil {
			return nil, err
		}
		failures = append(failures, parityFailures...)
		rep.Metrics = append(rep.Metrics, layer...)
	}

	rep.Failures = failures
	rep.Failed = len(failures)
	rep.Correct = len(failures) == 0
	failedRatio := 0.0
	if rep.Attempted > 0 {
		failedRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Metrics = append(rep.Metrics, single("failed_ratio", "ratio", roleNamed, "lower", failedRatio, rep.Attempted))
	printReport(w, rep)
	return rep, nil
}

// endToEnd computes the metrics every workload reports from its set-ups and
// rounds: a throughput is the median of the rounds, a latency is taken over
// all samples, and allocation is the bytes the rounds allocated per work
// item.
func endToEnd(setups []float64, rs []roundResult) []metric {
	rates := make([]float64, len(rs))
	requests := map[string][]float64{}
	var allocated uint64
	ops := 0
	for i, r := range rs {
		rates[i] = r.rate
		if rates[i] == 0 && r.wall > 0 {
			rates[i] = float64(r.ops) / r.wall.Seconds()
		}
		for g, ds := range r.requests {
			requests[g] = append(requests[g], msAll(ds)...)
		}
		allocated += r.alloc
		ops += r.allocOps
	}
	perOp := 0.0
	if ops > 0 {
		perOp = float64(allocated) / (1 << 20) / float64(ops)
	}
	return []metric{
		spread("setup_s", "s", roleEndToEnd, "lower", setups),
		spread("ops_per_s", "1/s", roleEndToEnd, "higher", rates),
		groupedLatency("request_ms_p50", roleEndToEnd, requests),
		single("alloc_mb_per_op", "MB", roleEndToEnd, "lower", perOp, ops),
	}
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cacheSnapshot holds the facade's reuse-layer counters.
type cacheSnapshot struct {
	pipeHits, pipeMisses uint64
	poolHits, poolMisses uint64
	codeHits, codeMisses uint64
}

func snapshotCaches() cacheSnapshot {
	pc, ep, cc := sulong.CacheStats(), sulong.EnginePoolStats(), sulong.CodeCacheStats()
	return cacheSnapshot{pc.Hits, pc.Misses, ep.Hits, ep.Misses, cc.Hits, cc.Misses}
}

func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// traceReplay replays the workload untraced and then traced, checks both
// against the untraced driver, writes the Chrome trace and returns the
// per-layer metrics.
func traceReplay(o options, wl workload, w io.Writer, rs []roundResult, before, after cacheSnapshot) ([]metric, []string, error) {
	// Untraced, traced, untraced again: the overhead compares the traced
	// replay with the mean of the untraced ones around it, which cancels
	// drift in process state (heap size, code layout) between replays.
	var failures []string
	replay := func(st *stack) time.Duration {
		t0 := time.Now()
		failures = append(failures, wl.replay(st)...)
		return time.Since(t0)
	}
	plain := newStack(nil)
	plainWall := replay(plain)
	tr := newTracer()
	traced := newStack(tr)
	tracedWall := replay(traced)
	plainWall = (plainWall + replay(newStack(nil))) / 2

	out := traced.layerMetrics()
	out = append(out,
		ratio("pipeline.hit_ratio", roleLayer, "higher", hitRatio(after.pipeHits-before.pipeHits, after.pipeMisses-before.pipeMisses)),
		ratio("core.pool_hit_ratio", roleLayer, "higher", hitRatio(after.poolHits-before.poolHits, after.poolMisses-before.poolMisses)),
		ratio("jit.codecache_hit_ratio", roleLayer, "higher", hitRatio(after.codeHits-before.codeHits, after.codeMisses-before.codeMisses)),
		ratio("trace_overhead", roleLayer, "lower", tracedWall.Seconds()/plainWall.Seconds()),
	)
	// Parallel efficiency: the rounds' throughput in replay operations
	// against what the workers would reach at the untraced replay's
	// single-worker operation time.
	var ops, rejects int
	var wall time.Duration
	for _, r := range rs {
		ops += r.ops
		rejects += r.rejects
		wall += r.wall
	}
	eff := 0.0
	if m := mean(plain.acc.opMS); m > 0 && wall > 0 {
		eff = float64(ops) * m / (ms(wall) * float64(wl.workers()))
	}
	rejectRatio := 0.0
	if ops > 0 {
		rejectRatio = float64(rejects) / float64(ops)
	}
	out = append(out,
		ratio("harness.parallel_efficiency", roleLayer, "higher", eff),
		ratio("campaign.reject_ratio", roleLayer, "lower", rejectRatio),
	)

	tr.printSelfTimes(w)
	path := o.traceOut
	if path == "" {
		path = filepath.Join(o.workdir, "trace-"+o.workload+".json")
	}
	if err := tr.writeChrome(path); err != nil {
		return nil, nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(w, "trace: %d spans written to %s; traced replay %.3f s, untraced %.3f s\n",
		len(tr.spans), path, tracedWall.Seconds(), plainWall.Seconds())
	return out, failures, nil
}

// printReport writes every metric by name with its unit and spread, then
// the failures.
func printReport(w io.Writer, rep *report) {
	ms := append([]metric(nil), rep.Metrics...)
	order := map[string]int{roleEndToEnd: 0, roleNamed: 1, roleLayer: 2}
	sort.SliceStable(ms, func(i, j int) bool { return order[ms[i].Role] < order[ms[j].Role] })
	for _, m := range ms {
		spread := ""
		if m.Q1 != m.Q3 {
			spread = fmt.Sprintf("  [q1 %.4g, q3 %.4g]", m.Q1, m.Q3)
		}
		fmt.Fprintf(w, "%-10s %-28s %14.6g %-6s n=%d%s\n", m.Role, m.Name, m.Value, m.Unit, m.N, spread)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for i, f := range rep.Failures {
		if i == 20 {
			fmt.Fprintf(w, "FAIL ... and %d more\n", len(rep.Failures)-20)
			break
		}
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// printResultLine writes the one-line JSON result: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
func printResultLine(w io.Writer, rep *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	role := roleEndToEnd
	if rep.Trace {
		role = roleLayer
	}
	metrics := map[string]value{}
	for _, m := range rep.Metrics {
		if m.Role == role {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	fmt.Fprintln(w, string(line))
}
