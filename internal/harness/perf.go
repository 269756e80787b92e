package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/nativevm"
)

// PerfConfig is one performance configuration (Fig. 16's x-axis groups).
type PerfConfig int

const (
	ClangO0            PerfConfig = iota // native machine, unoptimized IR
	ClangO3                              // native machine, optimized IR
	ASanPerf                             // ASan-instrumented, unoptimized IR
	ValgrindPerf                         // memcheck-hosted, unoptimized IR
	SafeSulongPerf                       // managed engine with the tier-1 compiler (tier-2 peak layer on), synchronous tier-up
	SafeSulongNoJIT                      // ablation: tier-0 interpreter only
	SafeSulongAsync                      // tier-2 with background compilation (install at dispatch points)
	SafeSulongAsyncOSR                   // async tier-2 plus on-stack replacement and speculative deopt
)

var perfNames = [...]string{
	ClangO0: "Clang -O0", ClangO3: "Clang -O3", ASanPerf: "ASan -O0",
	ValgrindPerf: "Valgrind", SafeSulongPerf: "Safe Sulong", SafeSulongNoJIT: "Safe Sulong (no JIT)",
	SafeSulongAsync: "Safe Sulong (async)", SafeSulongAsyncOSR: "Safe Sulong (async+OSR)",
}

func (p PerfConfig) String() string {
	if p < 0 || int(p) >= len(perfNames) {
		return fmt.Sprintf("PerfConfig(%d)", int(p))
	}
	return perfNames[p]
}

// PerfConfigs lists Fig. 16's configurations (Valgrind is measured but
// plotted separately, as in the paper).
func PerfConfigs() []PerfConfig {
	return []PerfConfig{ClangO0, ClangO3, ASanPerf, ValgrindPerf, SafeSulongPerf}
}

// DefaultTier1Threshold is the call count at which the harness's managed
// runners tier up.
const DefaultTier1Threshold = 25

// Runner executes one program repeatedly in-process (the paper's warm-up
// harness keeps state, letting the dynamic compiler reach a steady state).
type Runner interface {
	RunIteration() error
	// CompiledFunctions reports tier-1 compilations so far (managed only).
	// Under async configs this counts *installed* entry compilations.
	CompiledFunctions() int
	// JITStats reports tier-1 compiler activity (zero for native runners).
	JITStats() RunnerJITStats
	// TierStats reports the engine's tiering counters (zero for native
	// runners): OSR installs/entries, deopts, async installs.
	TierStats() RunnerTierStats
	// Close releases engine resources. Async configs own a background
	// compile pool; Close drains it. Idempotent, required for every runner.
	Close()
}

// RunnerTierStats mirrors core.Stats' async-tiering counters for benchmark
// reports and warm-up curves.
type RunnerTierStats struct {
	OSRCompiled   int64 `json:"osr_compiled"`
	OSREntries    int64 `json:"osr_entries"`
	Deopts        int64 `json:"deopts"`
	AsyncInstalls int64 `json:"async_installs"`
}

// RunnerJITStats mirrors the tier-1 compiler's counters for benchmark
// reports: a bail-out or a missing inline shows up here instead of as an
// unexplained slow row.
type RunnerJITStats struct {
	Compiled    int      `json:"compiled"`
	InstrsTotal int      `json:"instrs_total"`
	Bailed      int      `json:"bailed"`
	BailReasons []string `json:"bail_reasons,omitempty"`
	Inlined     int      `json:"inlined"`
}

// perfPool parks managed benchmark engines between runners. Sample rows
// that rebuild a Runner for the same module (repeated MeasureWarmup or
// MeasurePeak calls) reset a parked engine — globals re-zeroed,
// libc layout kept — instead of paying NewEngine's full layout cost.
var perfPool = core.NewEnginePool(0)

type managedRunner struct {
	eng      *core.Engine
	comp     *jit.Compiler
	compiled int
	bad      bool // an iteration errored: never park this engine
	closed   bool // Close is idempotent, but Put must happen exactly once
}

func (r *managedRunner) RunIteration() error {
	_, err := r.eng.Run()
	if err != nil {
		r.bad = true
	}
	return err
}

func (r *managedRunner) CompiledFunctions() int { return r.compiled }

func (r *managedRunner) JITStats() RunnerJITStats {
	if r.comp == nil {
		return RunnerJITStats{}
	}
	// Snapshot, not direct field reads: async configs mutate the compiler's
	// counters from pool workers.
	cs := r.comp.Snapshot()
	return RunnerJITStats{
		Compiled:    cs.Compiled,
		InstrsTotal: cs.InstrsTotal,
		Bailed:      cs.Bailed,
		BailReasons: cs.BailReasons,
		Inlined:     cs.Inlined,
	}
}

func (r *managedRunner) TierStats() RunnerTierStats {
	st := r.eng.Stats()
	return RunnerTierStats{
		OSRCompiled:   st.OSRCompiled,
		OSREntries:    st.OSREntries,
		Deopts:        st.Deopts,
		AsyncInstalls: st.AsyncInstalls,
	}
}

// Close parks the engine for the next runner of the same module instead of
// discarding it (the pool closes it first, draining any async pool). An
// engine whose iteration errored is closed and dropped: its state is not
// worth trusting to a reset.
func (r *managedRunner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.bad {
		r.eng.Close()
		return
	}
	perfPool.Put(r.eng)
}

type nativeRunner struct {
	m *nativevm.Machine
}

func (r *nativeRunner) RunIteration() error {
	_, err := r.m.Run()
	return err
}

func (r *nativeRunner) CompiledFunctions() int { return 0 }

func (r *nativeRunner) JITStats() RunnerJITStats { return RunnerJITStats{} }

func (r *nativeRunner) TierStats() RunnerTierStats { return RunnerTierStats{} }

func (r *nativeRunner) Close() {}

// NewRunner prepares an in-process repeat runner for a benchmark program.
// Callers must Close the runner.
func NewRunner(cfgKind PerfConfig, src, arg string) (Runner, error) {
	switch cfgKind {
	case SafeSulongPerf, SafeSulongNoJIT, SafeSulongAsync, SafeSulongAsyncOSR:
		mod, err := sulong.CompileOnly(src)
		if err != nil {
			return nil, err
		}
		r := &managedRunner{}
		ecfg := core.Config{
			Args:   []string{arg},
			Stdout: io.Discard,
			OnCompile: func(string) {
				r.compiled++
			},
		}
		if cfgKind != SafeSulongNoJIT {
			r.comp = jit.New()
			ecfg.Tier1 = r.comp
			ecfg.Tier1Threshold = DefaultTier1Threshold
		}
		switch cfgKind {
		case SafeSulongAsync:
			ecfg.AsyncJIT = true
		case SafeSulongAsyncOSR:
			ecfg.AsyncJIT = true
			ecfg.OSRThreshold = sulong.DefaultOSRThreshold
		}
		eng, err := perfPool.Get(mod, ecfg)
		if err != nil {
			return nil, err
		}
		r.eng = eng
		return r, nil
	default:
		optLevel := 0
		if cfgKind == ClangO3 {
			optLevel = 3
		}
		mod, err := sulong.CompileNative(src, optLevel)
		if err != nil {
			return nil, err
		}
		return newNativeRunner(cfgKind, mod, arg)
	}
}

func newNativeRunner(cfgKind PerfConfig, mod *ir.Module, arg string) (Runner, error) {
	eng := sulong.EngineNative
	switch cfgKind {
	case ASanPerf:
		eng = sulong.EngineASan
	case ValgrindPerf:
		eng = sulong.EngineMemcheck
	}
	ncfg, err := sulong.NativeConfig(eng)
	if err != nil {
		return nil, err
	}
	ncfg.Args = []string{arg}
	ncfg.Stdout = io.Discard
	m, err := nativevm.New(mod, ncfg)
	if err != nil {
		return nil, err
	}
	return &nativeRunner{m: m}, nil
}

// ---- start-up (§4.2) ----

// StartupResult is the time from invocation to hello-world completion.
// Safe Sulong's figure includes parsing libc and the user program (the
// paper's dominant cost); the native tools run a precompiled module.
type StartupResult struct {
	Tool PerfConfig
	Time time.Duration
}

const helloSrc = `#include <stdio.h>
int main(void) { printf("Hello, World!\n"); return 0; }`

// MeasureStartup times hello-world end to end, averaged over runs.
func MeasureStartup(runs int) ([]StartupResult, error) {
	if runs <= 0 {
		runs = 10
	}
	configs := []PerfConfig{ClangO0, ASanPerf, ValgrindPerf, SafeSulongPerf}
	// Native binaries exist before startup: compile outside the timer.
	nativeMod, err := sulong.CompileNative(helloSrc, 0)
	if err != nil {
		return nil, err
	}
	var out []StartupResult
	for _, cfgKind := range configs {
		start := time.Now()
		for i := 0; i < runs; i++ {
			switch cfgKind {
			case SafeSulongPerf:
				// Safe Sulong parses libc + program at startup (§4.2).
				// NoCache keeps the measurement honest: it builds a private
				// libc prefix on every call, so each run pays the front-end
				// work that the module cache and its shared libc prefix
				// would otherwise skip.
				mod, err := sulong.CompileFor(helloSrc, sulong.Config{Engine: sulong.EngineSafeSulong, NoCache: true})
				if err != nil {
					return nil, err
				}
				if _, err := sulong.RunModule(mod, sulong.Config{Engine: sulong.EngineSafeSulong, Stdout: io.Discard}); err != nil {
					return nil, err
				}
			default:
				r, err := newNativeRunner(cfgKind, nativeMod, "")
				if err != nil {
					return nil, err
				}
				if err := r.RunIteration(); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, StartupResult{Tool: cfgKind, Time: time.Since(start) / time.Duration(runs)})
	}
	return out, nil
}

// ---- warm-up (Fig. 15) ----

// WarmupSample is one time bucket of Fig. 15, extended in PR 6 with the
// async-tiering counters so the curve shows *when* compilation happened,
// not just how many iterations completed.
type WarmupSample struct {
	Bucket      int // index of the time bucket
	Iterations  int // benchmark iterations completed in this bucket
	Compiled    int // cumulative tier-1 compiled (installed) functions at bucket end
	OSRCompiled int // cumulative installed OSR entries at bucket end
	OSREntries  int // cumulative OSR transfers at bucket end
	Deopts      int // cumulative speculative deopts at bucket end
}

// MeasureWarmup replays the paper's Fig. 15: run the benchmark continuously
// for the given duration and report iterations completed per bucket.
func MeasureWarmup(bench benchprog.Benchmark, arg string, total time.Duration, bucket time.Duration, cfgs []PerfConfig) (map[PerfConfig][]WarmupSample, error) {
	if arg == "" {
		arg = bench.SmallArg
	}
	out := map[PerfConfig][]WarmupSample{}
	for _, cfgKind := range cfgs {
		r, err := NewRunner(cfgKind, bench.Source, arg)
		if err != nil {
			return nil, err
		}
		snap := func(s *WarmupSample) {
			s.Compiled = r.CompiledFunctions()
			ts := r.TierStats()
			s.OSRCompiled = int(ts.OSRCompiled)
			s.OSREntries = int(ts.OSREntries)
			s.Deopts = int(ts.Deopts)
		}
		start := time.Now()
		var samples []WarmupSample
		cur := WarmupSample{Bucket: 0}
		for time.Since(start) < total {
			if err := r.RunIteration(); err != nil {
				r.Close()
				return nil, fmt.Errorf("%v: %w", cfgKind, err)
			}
			b := int(time.Since(start) / bucket)
			if b != cur.Bucket {
				snap(&cur)
				samples = append(samples, cur)
				for k := cur.Bucket + 1; k < b; k++ {
					empty := WarmupSample{Bucket: k}
					snap(&empty)
					samples = append(samples, empty)
				}
				cur = WarmupSample{Bucket: b}
			}
			cur.Iterations++
		}
		snap(&cur)
		samples = append(samples, cur)
		r.Close()
		out[cfgKind] = samples
	}
	return out, nil
}

// ---- peak performance (Fig. 16) ----

// PeakResult is one benchmark's row of Fig. 16.
type PeakResult struct {
	Bench string
	// Time per configuration (median of samples after warm-up).
	Times map[PerfConfig]time.Duration
	// JIT carries the tier-1 compiler counters per managed configuration
	// (compiled/bailed/inlined), so a bail-out can be asserted against
	// instead of read off a slow row.
	JIT map[PerfConfig]RunnerJITStats
}

// Relative returns the ratio of a configuration's time to Clang -O0
// (Fig. 16's y-axis).
func (p PeakResult) Relative(cfg PerfConfig) float64 {
	base := p.Times[ClangO0]
	if base == 0 {
		return 0
	}
	return float64(p.Times[cfg]) / float64(base)
}

// DefaultPeakWarmups and DefaultPeakSamples are MeasurePeak's iteration
// counts when the caller passes 0. The paper warms up for 50 iterations,
// which also carries every function main calls once per iteration — main
// itself included — past DefaultTier1Threshold.
const (
	DefaultPeakWarmups = 50
	DefaultPeakSamples = 10
)

// MeasurePeak measures steady-state iteration time for each configuration:
// `warmups` in-process iterations first, then the median of `samples` timed
// iterations (0 = DefaultPeakWarmups / DefaultPeakSamples).
func MeasurePeak(bench benchprog.Benchmark, arg string, warmups, samples int, cfgs []PerfConfig) (PeakResult, error) {
	if arg == "" {
		arg = bench.DefaultArg
	}
	if warmups <= 0 {
		warmups = DefaultPeakWarmups
	}
	if samples <= 0 {
		samples = DefaultPeakSamples
	}
	res := PeakResult{
		Bench: bench.Name,
		Times: map[PerfConfig]time.Duration{},
		JIT:   map[PerfConfig]RunnerJITStats{},
	}
	// Prepare every configuration's runner up front on the worker pool: the
	// compile work (and module-cache population) overlaps across
	// configurations, while the timed iterations below stay strictly serial
	// so measurements are undisturbed.
	runners := make([]Runner, len(cfgs))
	errs := make([]error, len(cfgs))
	ForEach(len(cfgs), 0, func(i int) {
		runners[i], errs[i] = NewRunner(cfgs[i], bench.Source, arg)
	})
	defer func() {
		for _, r := range runners {
			if r != nil {
				r.Close()
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("%s under %v (prepare): %w", bench.Name, cfgs[i], err)
		}
	}
	for ci, cfgKind := range cfgs {
		r := runners[ci]
		for i := 0; i < warmups; i++ {
			if err := r.RunIteration(); err != nil {
				return res, fmt.Errorf("%s under %v (warmup): %w", bench.Name, cfgKind, err)
			}
		}
		// Collect garbage left over from warm-up (and from the previous
		// configuration's run) off the clock, so a GC cycle triggered by an
		// earlier configuration's allocations doesn't land inside a timed
		// iteration — at sub-millisecond iteration times that skews medians.
		runtime.GC()
		times := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			if err := r.RunIteration(); err != nil {
				return res, fmt.Errorf("%s under %v: %w", bench.Name, cfgKind, err)
			}
			times = append(times, time.Since(t0))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		res.Times[cfgKind] = times[len(times)/2]
		res.JIT[cfgKind] = r.JITStats()
	}
	return res, nil
}

// RenderPeak formats Fig. 16 as a table of ratios relative to Clang -O0.
func RenderPeak(results []PeakResult, cfgs []PerfConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s", "benchmark")
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%22s", c)
	}
	b.WriteString("\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-15s", r.Bench)
		for _, c := range cfgs {
			fmt.Fprintf(&b, "%15.2fx (%s)", r.Relative(c), shortDur(r.Times[c]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dus", d.Microseconds())
	}
}
