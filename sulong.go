// Package sulong is the public API of this repository: a reproduction of
// "Sulong, and Thanks For All the Bugs" (ASPLOS 2018). It compiles C
// programs to SIR (an LLVM-IR-like representation) and executes them under
// one of several engines:
//
//   - EngineSafeSulong — the paper's contribution: a managed interpreter
//     with exact bounds/NULL/free/vararg checking (internal/core) and an
//     optional tier-1 dynamic compiler (internal/jit).
//   - EngineNative — a simulated native machine (flat memory, no checks),
//     standing in for binaries produced by Clang -O0/-O3.
//   - EngineASan — the native machine instrumented with shadow memory and
//     redzones, modeling LLVM's AddressSanitizer.
//   - EngineMemcheck — the native machine under binary instrumentation with
//     A/V-bit shadow state, modeling Valgrind's memcheck.
//
// Typical use:
//
//	res, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineSafeSulong})
//	if res.Bug != nil { fmt.Println(res.Bug) }
package sulong

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

// Engine selects an execution engine.
type Engine int

const (
	// EngineSafeSulong is the managed, exactly-checked engine (the paper's
	// tool), running IR produced without optimization.
	EngineSafeSulong Engine = iota
	// EngineNative simulates an uninstrumented native binary.
	EngineNative
	// EngineASan simulates a Clang+AddressSanitizer build.
	EngineASan
	// EngineMemcheck simulates running the native binary under Valgrind.
	EngineMemcheck
)

var engineNames = [...]string{
	EngineSafeSulong: "SafeSulong",
	EngineNative:     "Native",
	EngineASan:       "ASan",
	EngineMemcheck:   "Memcheck",
}

func (e Engine) String() string {
	if e < 0 || int(e) >= len(engineNames) {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engineNames[e]
}

// flavor maps an engine to its compilation-pipeline flavor.
func (e Engine) flavor() pipeline.Flavor {
	if e == EngineSafeSulong {
		return pipeline.FlavorManaged
	}
	return pipeline.FlavorNative
}

// Config configures compilation and execution.
type Config struct {
	Engine Engine
	// OptLevel is the optimization level of the *native-side* compile
	// pipeline (0 or 3). Safe Sulong always executes unoptimized IR
	// (paper §3.1: Clang is run without optimizations).
	OptLevel int

	Args  []string
	Env   []string
	Stdin io.Reader
	// Stdout receives program output; when nil it is captured in Result.
	Stdout io.Writer

	// JIT enables Safe Sulong's tier-1 dynamic compiler.
	JIT bool
	// JITThreshold overrides the default tier-up threshold (0 = engine
	// default). It counts a function's calls plus the loop back edges its
	// interpreted activations take, tested at call entry: a function
	// compiles on the call whose count reaches it, so a hot loop promotes
	// its function at the next call, and any negative value acts as 1:
	// compile on first call.
	JITThreshold int64
	// JITAsync compiles hot functions on a background pool owned by the
	// engine while tier-0 keeps executing; compiled code is installed at
	// the next dispatch point instead of stalling the hot call.
	JITAsync bool
	// OSRThreshold, when positive, enables on-stack replacement: a loop
	// whose back edge fires OSRThreshold times is entered mid-execution by
	// frame-compatible compiled code (the plain tier-1 lowering, every
	// check kept), and its function is promoted for entry compilation, so a hot loop
	// tiers up even when its function is called once. 0 = OSR off;
	// DefaultOSRThreshold is the documented value.
	OSRThreshold int64
	// OnCompile observes tier-1 compilation events (Fig. 15).
	OnCompile func(name string)

	// NoCache bypasses every process-wide reuse layer. A compile runs every
	// pipeline stage from scratch, the managed libc's included, and the
	// caller owns the resulting module exclusively (it may be mutated
	// freely). A run constructs a fresh engine or native machine instead
	// of resetting one from the reuse pools, and tier-1 compiles its
	// closures instead of sharing them through the executable-code cache —
	// the cold baseline the warm-vs-cold parity suite compares against. The
	// layers are on by default; modules the module cache returns are shared
	// and must not be mutated.
	NoCache bool

	// MaxSteps bounds execution (0 = engine default). The budget is
	// enforced in every tier: the tier-0 interpreters charge one step per
	// instruction, tier-1 compiled code charges per basic block, and libc
	// fast paths charge data-proportional work. Exhaustion surfaces as a
	// *core.LimitError — deterministic for a given program and budget.
	MaxSteps int64
	// Timeout bounds wall-clock execution (0 = none). Enforcement is
	// cooperative: a watchdog stops the run's governor, which every engine
	// polls at basic-block boundaries; expiry surfaces as a
	// *core.DeadlineError. Use RunCtx for caller-driven cancellation.
	Timeout time.Duration
	// MaxHeapBytes bounds cumulative live guest memory — heap plus stack
	// plus globals — in every engine (0 = unlimited). Heap exhaustion is
	// soft: guest malloc returns NULL, which C programs can handle. Stack
	// or global exhaustion is hard: it surfaces as a *core.ResourceError
	// and the harness classifies the run "oom".
	MaxHeapBytes int64
	// MaxAllocBytes bounds a single heap request (0 = engine default of
	// 2 GiB); over-cap requests fail softly like a real malloc.
	MaxAllocBytes int64
	// FaultPlan injects deterministic guest allocation failures (fail the
	// n-th malloc, fail after N bytes, seeded-random failures) identically
	// in every tier, so the guest's own `if (!p)` error paths are actually
	// exercised. The zero plan injects nothing.
	FaultPlan fault.Plan
	// DetectLeaks turns on leak reporting at exit (managed engine only).
	DetectLeaks bool
	// DetectUseAfterReturn reports accesses to stack objects of functions
	// that already returned (managed engine only).
	DetectUseAfterReturn bool
	// HardenedLibc selects the bounds-aware C library: the bulk-write
	// string family (memcpy/memmove/memset/strcpy/strcat) consults the
	// engine's object metadata and truncates at the destination's end
	// instead of overflowing. On the managed engine the libc sources are
	// recompiled with __SS_HARDENED; on the native family the precompiled
	// nlibc clamps through the machine's type mirror. Where the engine
	// cannot tell the destination's extent the functions degrade to their
	// ordinary (overflowing, but checked where the engine checks) behavior.
	HardenedLibc bool

	// ExtraFiles adds include-able files to the compilation.
	ExtraFiles map[string]string
}

// Result is the outcome of running a program.
type Result struct {
	ExitCode int
	Stdout   string
	// Bug is the first detected memory error, if any. Only engines that
	// check (SafeSulong, ASan, Memcheck) report bugs; the native engine
	// reports Fault instead when the simulated machine traps.
	Bug *core.BugError
	// Fault is a native machine trap (SIGSEGV-like), when one occurred.
	Fault error
	// Leaks lists unfreed heap allocations (managed engine, DetectLeaks).
	Leaks []*core.BugError
	// Diagnostics carries every report of the run (the bug, then leaks) in
	// the unified diagnostics form: kind, message, tool/tier provenance, and
	// the access / allocation-site / free-site backtraces. The rendered form
	// (Diagnostic.Render) is deterministic and excludes the tier, so tier-0
	// and tier-1 SafeSulong runs produce byte-identical reports.
	Diagnostics []*diag.Diagnostic
	// Stats carries engine counters (managed engine).
	Stats core.Stats
	// JIT reports tier-1 compiler activity (nil unless Config.JIT). A
	// bail-out is invisible in correctness terms — the function simply stays
	// interpreted — so benchmarks and CI must be able to *see* it here
	// rather than diagnose a silent slowdown.
	JIT *JITReport
}

// JITReport summarizes one run's tier-1 compiler activity.
type JITReport struct {
	// Compiled counts functions lowered to tier-1 closures; InstrsTotal
	// their pre-lowering instruction count (committed only on success).
	Compiled    int `json:"compiled"`
	InstrsTotal int `json:"instrs_total"`
	// Bailed counts abandoned compilations; BailReasons says why (capped).
	Bailed      int      `json:"bailed"`
	BailReasons []string `json:"bail_reasons,omitempty"`
	// Inlined counts call sites expanded by the tier-2 inliner.
	Inlined int `json:"inlined"`
	// Async tiering activity: OSR entries installed and entered, and
	// background compilations installed.
	OSRCompiled   int64 `json:"osr_compiled,omitempty"`
	OSREntries    int64 `json:"osr_entries,omitempty"`
	AsyncInstalls int64 `json:"async_installs,omitempty"`
}

// DefaultOSRThreshold is the documented Config.OSRThreshold: the back-edge
// count after which a loop is compiled for on-stack replacement.
const DefaultOSRThreshold = 64

// CompileOnly compiles a C program (user source plus the bundled libc) to an
// unoptimized SIR module, as the managed engine consumes it. The result is
// served from the content-addressed module cache and shared; treat it as
// immutable (engines never mutate modules, and the tier-1 JIT clones before
// optimizing).
func CompileOnly(src string) (*ir.Module, error) {
	res, err := pipeline.Compile(pipeline.Request{Source: src, Flavor: pipeline.FlavorManaged})
	if err != nil {
		return nil, err
	}
	return res.Module, nil
}

// CacheStats snapshots the process-wide module cache counters.
func CacheStats() pipeline.CacheStats { return pipeline.Default.Stats() }

// ResetCache drops every cached module, and the engines and machines parked
// for them, zeroing the pools' counters (cold-start measurements and tests).
func ResetCache() {
	pipeline.Default.Reset()
	resetPools()
}

// The back-end reuse layer: one executable-code cache, one engine pool and
// one machine pool for the whole process, mirroring pipeline.Default on the
// front end. Config.NoCache opts a run out of all three.
var (
	codeCache  = jit.NewCodeCache(0)
	enginePool = core.NewEnginePool(0)
	// machinePool parks native-family machines by (module, engine): ASan,
	// memcheck and bare native at -O0 run one module, each on its own
	// machines.
	machinePool = core.NewPool[Engine, *nativevm.Machine](0)
)

// CodeCacheStats snapshots the process-wide executable-code cache counters.
func CodeCacheStats() jit.CodeCacheStats { return codeCache.Stats() }

// EnginePoolStats snapshots the engine reuse pool counters.
func EnginePoolStats() core.EnginePoolStats { return enginePool.Stats() }

// MachinePoolStats snapshots the native machine reuse pool counters.
func MachinePoolStats() core.PoolStats { return machinePool.Stats() }

// ResetCodeCache drops every cached compiled unit, pooled engine and pooled
// machine and zeroes their counters (cold-start measurements and tests).
func ResetCodeCache() {
	codeCache.Reset()
	resetPools()
}

func resetPools() {
	enginePool.Reset()
	machinePool.Reset()
}

// ReleaseModule retires mod from every process-wide reuse layer: the module
// cache, the executable-code cache, and the engine and machine pools.
// Callers that know a module will never run again — harness.RunOnce, after
// the last run of a program that runs only once — use it to implement
// "compile once, run many, then release": the caches carry the module
// across its own runs but never accumulate one-shot programs. Releasing is
// always safe, merely a cache eviction — a later run of the same source
// recompiles — and concurrent runs of mod are unaffected; the engines and
// machines they finish with are dropped, not parked.
func ReleaseModule(mod *ir.Module) {
	if mod == nil {
		return
	}
	pipeline.Default.Release(mod)
	codeCache.ReleaseModule(mod)
	enginePool.Release(mod)
	machinePool.Release(mod)
}

// Run compiles and executes a C program under the configured engine.
//
// The compilation pipeline differs per engine exactly as in the paper:
// Safe Sulong interprets unoptimized IR of the program *plus* the safe libc
// written in C; the native family compiles only the user program (their
// libc is precompiled) and runs it through the optimizer at cfg.OptLevel.
func Run(src string, cfg Config) (Result, error) {
	return RunCtx(context.Background(), src, cfg)
}

// RunCtx is Run with caller-driven cancellation: when ctx is cancelled (or
// its deadline passes), the run's governor is stopped and every engine
// returns a *core.DeadlineError at its next basic-block boundary. ctx also
// composes with cfg.Timeout — whichever fires first wins.
func RunCtx(ctx context.Context, src string, cfg Config) (Result, error) {
	mod, err := CompileFor(src, cfg)
	if err != nil {
		return Result{}, err
	}
	return RunModuleCtx(ctx, mod, cfg)
}

// CompileFor compiles src the way cfg.Engine's toolchain would, through the
// staged pipeline. With the cache enabled (the default) the returned module
// is shared with every other compilation of the same (source, flavor, opt
// level) and must be treated as immutable; with cfg.NoCache it is owned by
// the caller.
//
// Like RunModuleCtx, CompileFor is a containment boundary: a panic anywhere
// in the front end or optimizer (a lexer/parser/codegen bug, never guest
// behavior) is recovered and returned as a *core.InternalError instead of
// killing the process. The fuzzing campaign feeds this path millions of
// generated programs, where a compiler death must be a quarantined,
// reportable finding — not the end of the run.
func CompileFor(src string, cfg Config) (mod *ir.Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			mod, err = nil, &core.InternalError{Panic: r, Stack: string(debug.Stack())}
		}
	}()
	req := pipeline.Request{
		Source:     src,
		ExtraFiles: cfg.ExtraFiles,
		Flavor:     cfg.Engine.flavor(),
		OptLevel:   cfg.OptLevel,
		Hardened:   cfg.HardenedLibc,
	}
	if cfg.NoCache {
		mod, _, err := pipeline.CompileUncached(req)
		return mod, err
	}
	res, err := pipeline.Compile(req)
	if err != nil {
		return nil, err
	}
	return res.Module, nil
}

// RunModule executes an already-compiled module under the configured engine.
func RunModule(mod *ir.Module, cfg Config) (Result, error) {
	return RunModuleCtx(context.Background(), mod, cfg)
}

// RunModuleCtx executes an already-compiled module with cancellation.
//
// This is the execution governor's containment boundary: engine panics
// (interpreter, tier-1 compiler, or simulated machine bugs — never guest
// program behavior) are recovered and returned as a *core.InternalError
// instead of killing the process, so one bad case cannot take down a whole
// evaluation matrix.
func RunModuleCtx(ctx context.Context, mod *ir.Module, cfg Config) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &core.InternalError{Panic: r, Stack: string(debug.Stack())}
		}
	}()
	var gov *core.Governor
	if cfg.Timeout > 0 || (ctx != nil && ctx.Done() != nil) {
		gov = &core.Governor{}
		release := gov.Watch(ctx, cfg.Timeout)
		defer release()
	}
	switch cfg.Engine {
	case EngineSafeSulong:
		return runManaged(mod, cfg, gov)
	case EngineNative, EngineASan, EngineMemcheck:
		return runNativeFamily(mod, cfg, gov)
	}
	return Result{}, fmt.Errorf("sulong: unknown engine %d", cfg.Engine)
}

func runManaged(mod *ir.Module, cfg Config, gov *core.Governor) (Result, error) {
	ecfg := core.Config{
		Args:                 cfg.Args,
		Env:                  cfg.Env,
		Stdin:                cfg.Stdin,
		Stdout:               cfg.Stdout,
		MaxSteps:             cfg.MaxSteps,
		MaxHeapBytes:         cfg.MaxHeapBytes,
		MaxAllocBytes:        cfg.MaxAllocBytes,
		FaultPlan:            cfg.FaultPlan,
		Governor:             gov,
		DetectLeaks:          cfg.DetectLeaks,
		DetectUseAfterReturn: cfg.DetectUseAfterReturn,
		OnCompile:            cfg.OnCompile,
	}
	var comp *jit.Compiler
	if cfg.JIT {
		comp = jit.New()
		if !cfg.NoCache {
			comp.Cache = codeCache
		}
		ecfg.Tier1 = comp
		ecfg.Tier1Threshold = cfg.JITThreshold
		ecfg.AsyncJIT = cfg.JITAsync
		ecfg.OSRThreshold = cfg.OSRThreshold
	}
	var eng *core.Engine
	var err error
	if cfg.NoCache {
		eng, err = core.NewEngine(mod, ecfg)
	} else {
		eng, err = enginePool.Get(mod, ecfg)
	}
	if err != nil {
		return Result{}, err
	}
	// The deferred Close covers the panic-containment path (an engine that
	// panicked is never pooled); the explicit Close below joins the
	// background compile pool before counters are read.
	pooled := false
	defer func() {
		if !pooled {
			eng.Close()
		}
	}()
	code, err := eng.Run()
	eng.Close()
	stats := eng.Stats()
	res := Result{ExitCode: code, Stdout: eng.Output(), Stats: stats}
	if comp != nil {
		cs := comp.Snapshot()
		res.JIT = &JITReport{
			Compiled:      cs.Compiled,
			InstrsTotal:   cs.InstrsTotal,
			Bailed:        cs.Bailed,
			BailReasons:   cs.BailReasons,
			Inlined:       cs.Inlined,
			OSRCompiled:   stats.OSRCompiled,
			OSREntries:    stats.OSREntries,
			AsyncInstalls: stats.AsyncInstalls,
		}
	}
	if cfg.DetectLeaks {
		res.Leaks = eng.Leaks()
	}
	// Everything the result needs has been read out of the engine (output
	// string, stats, leak reports — all value types or engine-independent
	// persistent structures), so it is safe to recycle it.
	if !cfg.NoCache {
		pooled = true
		enginePool.Put(eng)
	}
	tier := "tier-0"
	if cfg.JIT {
		tier = "tier-1"
	}
	if bug, ok := asBug(err); ok {
		res.Bug, err = bug, nil
	}
	res.collectDiagnostics("SafeSulong", tier)
	return res, err
}

// collectDiagnostics converts the run's reports (the bug, then leaks, in
// that deterministic order) into the unified diagnostics form.
func (r *Result) collectDiagnostics(tool, tier string) {
	if r.Bug != nil {
		r.Diagnostics = append(r.Diagnostics, r.Bug.Diagnostic(tool, tier))
	}
	for _, l := range r.Leaks {
		r.Diagnostics = append(r.Diagnostics, l.Diagnostic(tool, tier))
	}
}

// asBug returns the *core.BugError err is or wraps — including through
// multi-error wrappers (errors.Join) — and whether there is one. A bare
// bug, the common case, costs no allocation.
func asBug(err error) (*core.BugError, bool) {
	if bug, ok := err.(*core.BugError); ok {
		return bug, true
	}
	var bug *core.BugError
	return bug, errors.As(err, &bug)
}
