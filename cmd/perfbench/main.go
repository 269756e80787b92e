// Command perfbench reproduces the paper's performance evaluation:
// §4.2 start-up and warm-up (Fig. 15) and §4.3 peak performance (Fig. 16),
// plus pipeline-level measurements of this repository's own machinery: the
// corpus-matrix wall clock under the parallel evaluation driver and the
// content-addressed module cache's hit rate.
//
// Usage:
//
//	perfbench -startup                 # hello-world start-up per tool
//	perfbench -warmup [-bench meteor]  # Fig. 15 iterations/s over time
//	perfbench -peak [-bench all]       # Fig. 16 relative execution times
//	perfbench -peak -full              # paper-sized runs (50 warm-ups, 10 samples)
//	perfbench -matrix [-parallel N]    # corpus-matrix wall clock, serial vs parallel
//	perfbench -matrix -timeout 5s      # with a per-cell wall-clock deadline
//	perfbench ... -json out.json       # machine-readable report (cache stats included)
//
// The committed, rerunnable measurement protocol with per-layer attribution
// is the benchmark under bench/ (`bash bench/run.sh -workload NAME -seed N`);
// the BENCH_PR*.json files at the repository root are historical records of
// earlier protocols.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/benchprog"
	"repro/internal/harness"
)

// report is the machine-readable output of a perfbench invocation. Every
// section is optional (filled only when the matching mode ran); the cache
// section is always present.
type report struct {
	Startup []startupEntry `json:"startup,omitempty"`
	Peak    []peakEntry    `json:"peak,omitempty"`
	Matrix  *matrixEntry   `json:"matrix,omitempty"`
	// Caches reports every process-wide cache (pipeline module cache,
	// executable-code cache, engine pool) with key-sorted fields.
	Caches harness.CacheReport `json:"caches"`
}

type startupEntry struct {
	Tool   string  `json:"tool"`
	TimeMs float64 `json:"timeMs"`
}

type peakEntry struct {
	Bench    string             `json:"bench"`
	TimesMs  map[string]float64 `json:"timesMs"`
	Relative map[string]float64 `json:"relativeToClangO0"`
}

type matrixEntry struct {
	Cases               int     `json:"cases"`
	Workers             int     `json:"workers"`
	SerialWallClockMs   float64 `json:"serialWallClockMs"`
	ParallelWallClockMs float64 `json:"parallelWallClockMs"`
	Speedup             float64 `json:"speedup"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func main() {
	startup := flag.Bool("startup", false, "measure start-up time (§4.2)")
	warmup := flag.Bool("warmup", false, "measure warm-up behaviour (Fig. 15)")
	peak := flag.Bool("peak", false, "measure peak performance (Fig. 16)")
	matrix := flag.Bool("matrix", false, "measure corpus-matrix wall clock, serial vs parallel")
	benchName := flag.String("bench", "", "benchmark name (default: meteor for -warmup, all for -peak)")
	warmups := flag.Int("warmups", 0, "in-process warm-up iterations before sampling (0 = library default)")
	samples := flag.Int("samples", 0, "timed iterations per configuration (0 = library default)")
	seconds := flag.Float64("seconds", 10, "wall-clock duration of the warm-up experiment")
	full := flag.Bool("full", false, "use the paper-sized workloads (slower)")
	parallel := flag.Int("parallel", 0, "matrix worker count (0 = one per CPU)")
	cellTimeout := flag.Duration("timeout", 0, "per-cell wall-clock deadline for -matrix (0 = none)")
	maxSteps := flag.Int64("maxsteps", 0, "per-cell step budget for -matrix (0 = harness default)")
	jsonOut := flag.String("json", "", "write a machine-readable report to this file")
	flag.Parse()

	if !*startup && !*warmup && !*peak && !*matrix {
		fmt.Fprintln(os.Stderr, "usage: perfbench -startup | -warmup | -peak | -matrix [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var rep report

	if *startup {
		results, err := harness.MeasureStartup(10)
		check(err)
		fmt.Println("Start-up time, hello world (average of 10 runs):")
		for _, r := range results {
			fmt.Printf("  %-14v %v\n", r.Tool, r.Time)
			rep.Startup = append(rep.Startup, startupEntry{Tool: r.Tool.String(), TimeMs: ms(r.Time)})
		}
	}

	if *warmup {
		name := *benchName
		if name == "" {
			name = "meteor"
		}
		b, err := benchprog.Get(name)
		check(err)
		arg := b.SmallArg
		if *full {
			arg = b.DefaultArg
		}
		fmt.Printf("Warm-up on %s (arg %s), %gs window, 1s buckets (Fig. 15):\n", name, arg, *seconds)
		cfgs := []harness.PerfConfig{harness.SafeSulongPerf, harness.ASanPerf, harness.ValgrindPerf}
		out, err := harness.MeasureWarmup(b, arg, time.Duration(*seconds*float64(time.Second)), time.Second, cfgs)
		check(err)
		for _, cfg := range cfgs {
			fmt.Printf("  %v:\n", cfg)
			for _, s := range out[cfg] {
				marker := ""
				if cfg == harness.SafeSulongPerf {
					marker = fmt.Sprintf("  (compiled ASTs: %d)", s.Compiled)
				}
				fmt.Printf("    second %2d: %4d iterations%s\n", s.Bucket+1, s.Iterations, marker)
			}
		}
	}

	if *peak {
		var benches []benchprog.Benchmark
		if *benchName == "" || *benchName == "all" {
			benches = benchprog.All()
		} else {
			b, err := benchprog.Get(*benchName)
			check(err)
			benches = []benchprog.Benchmark{b}
		}
		if *warmups <= 0 {
			*warmups = harness.DefaultPeakWarmups
		}
		if *samples <= 0 {
			*samples = harness.DefaultPeakSamples
		}
		fmt.Printf("Peak performance relative to Clang -O0 (Fig. 16), %d warm-ups, %d samples:\n",
			*warmups, *samples)
		var rows []harness.PeakResult
		for _, b := range benches {
			arg := b.SmallArg
			if *full {
				arg = b.DefaultArg
			}
			row, err := harness.MeasurePeak(b, arg, *warmups, *samples, harness.PerfConfigs())
			check(err)
			rows = append(rows, row)
			note := ""
			if b.AllocHeavy {
				note = "   <- allocation-intensive (§4.3's binarytrees discussion)"
			}
			fmt.Printf("  %s done%s\n", b.Name, note)
		}
		fmt.Println()
		fmt.Print(harness.RenderPeak(rows, harness.PerfConfigs()))
		for _, row := range rows {
			pe := peakEntry{Bench: row.Bench, TimesMs: map[string]float64{}, Relative: map[string]float64{}}
			for _, cfg := range harness.PerfConfigs() {
				pe.TimesMs[cfg.String()] = ms(row.Times[cfg])
				pe.Relative[cfg.String()] = row.Relative(cfg)
			}
			rep.Peak = append(rep.Peak, pe)
		}
	}

	if *matrix {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// Warm the module cache off the clock, then time the matrix serial
		// vs parallel: with compilation amortized, the remaining cost is
		// execution, which scales with the worker count.
		fmt.Printf("Corpus-matrix wall clock (cache warm, %d cases x %d tools):\n",
			len(harness.RunDetectionMatrix().Cases), len(harness.Tools()))
		budget := harness.CaseBudget{MaxSteps: *maxSteps, Timeout: *cellTimeout}
		t0 := time.Now()
		serial := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: 1, Budget: budget})
		serialDur := time.Since(t0)
		t0 = time.Now()
		par := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: workers, Budget: budget})
		parDur := time.Since(t0)
		if serial.Render() != par.Render() {
			fmt.Fprintln(os.Stderr, "perfbench: serial and parallel matrices disagree")
			os.Exit(1)
		}
		speedup := float64(serialDur) / float64(parDur)
		fmt.Printf("  serial   (1 worker)   %v\n", serialDur.Round(time.Millisecond))
		fmt.Printf("  parallel (%d workers) %v  (%.2fx)\n", workers, parDur.Round(time.Millisecond), speedup)
		rep.Matrix = &matrixEntry{
			Cases:               len(par.Cases),
			Workers:             workers,
			SerialWallClockMs:   ms(serialDur),
			ParallelWallClockMs: ms(parDur),
			Speedup:             speedup,
		}
	}

	rep.Caches = harness.Caches()
	pc, cc, ep, mp := rep.Caches.Pipeline, rep.Caches.CodeCache, rep.Caches.EnginePool, rep.Caches.MachinePool
	fmt.Printf("\nmodule cache: %d hits / %d misses (%.0f%% hit rate), %d entries\n",
		pc.Hits, pc.Misses, 100*pc.HitRate, pc.Entries)
	fmt.Printf("code cache:   %d hits / %d misses, %d evictions, %d units (%d funcs)\n",
		cc.Hits, cc.Misses, cc.Evictions, cc.Units, cc.Funcs)
	fmt.Printf("engine pool:  %d hits / %d misses, %d idle\n", ep.Hits, ep.Misses, ep.Idle)
	fmt.Printf("machine pool: %d hits / %d misses, %d idle\n", mp.Hits, mp.Misses, mp.Idle)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
		fmt.Printf("report written to %s\n", *jsonOut)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
