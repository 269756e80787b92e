package sulong

import (
	"fmt"

	"repro/internal/asan"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/memcheck"
	"repro/internal/nativemem"
	"repro/internal/nativevm"
	"repro/internal/nlibc"
	"repro/internal/pipeline"
)

// CompileNative compiles a C program the way the native toolchain does: the
// user source only (libc is the "precompiled" nlibc), run through the
// optimizer at the requested level. Level 0 still applies the backend
// constant-global fold the paper caught Clang doing at -O0 (Fig. 13).
// The result comes from the content-addressed cache and is shared; treat it
// as immutable.
func CompileNative(src string, optLevel int) (*ir.Module, error) {
	res, err := pipeline.Compile(pipeline.Request{
		Source: src, Flavor: pipeline.FlavorNative, OptLevel: optLevel,
	})
	if err != nil {
		return nil, err
	}
	return res.Module, nil
}

// NativeConfig builds the machine configuration for a native-family engine:
// the libc binding, and for the instrumented engines a fresh tool (ASan's
// libc is nlibc under its interceptors, built once per process). Callers
// fill in Args, Stdin/Stdout, and limits.
func NativeConfig(eng Engine) (nativevm.Config, error) {
	switch eng {
	case EngineNative:
		return nativevm.Config{Libc: nlibc.Table()}, nil
	case EngineASan:
		return nativevm.Config{Tool: asan.New(asan.DefaultOptions()), Libc: asan.Libc()}, nil
	case EngineMemcheck:
		return nativevm.Config{Tool: memcheck.New(), Libc: nlibc.Table()}, nil
	}
	return nativevm.Config{}, fmt.Errorf("sulong: engine %v is not native", eng)
}

// maxParkedBytes bounds the page and shadow buffers a parked machine may
// hold: a run that grew more is not parked, so one large run does not pin
// its memory in the pool.
const maxParkedBytes = 1 << 20

// bufferBytes is the size of the page and shadow buffers m keeps across a
// Reset, its tool's included.
func bufferBytes(m *nativevm.Machine) int64 {
	n := m.Mem.BufferBytes()
	switch t := m.Tool().(type) {
	case *asan.Tool:
		n += t.BufferBytes()
	case *memcheck.Tool:
		n += t.BufferBytes()
	}
	return n
}

// acquireMachine returns a machine for mod under cfg.Engine, configured by
// ncfg's per-run fields: a parked machine of (mod, engine) reset with its
// own tool, or, on a miss or with cfg.NoCache, a new one with a fresh tool.
func acquireMachine(mod *ir.Module, cfg Config, ncfg nativevm.Config) (*nativevm.Machine, error) {
	build := func() (*nativevm.Machine, error) {
		base, err := NativeConfig(cfg.Engine)
		if err != nil {
			return nil, err
		}
		ncfg.Tool, ncfg.Libc = base.Tool, base.Libc
		return nativevm.New(mod, ncfg)
	}
	if cfg.NoCache {
		return build()
	}
	return machinePool.Get(mod, cfg.Engine, func(m *nativevm.Machine) error {
		ncfg.Tool, ncfg.Libc = m.Tool(), m.Libc()
		return m.Reset(ncfg)
	}, build)
}

// runNativeFamily executes a module on the simulated native machine,
// optionally under ASan or memcheck instrumentation.
func runNativeFamily(mod *ir.Module, cfg Config, gov *core.Governor) (Result, error) {
	m, err := acquireMachine(mod, cfg, nativevm.Config{
		Args:          cfg.Args,
		Env:           cfg.Env,
		Stdin:         cfg.Stdin,
		Stdout:        cfg.Stdout,
		MaxSteps:      cfg.MaxSteps,
		MaxHeapBytes:  cfg.MaxHeapBytes,
		MaxAllocBytes: cfg.MaxAllocBytes,
		FaultPlan:     cfg.FaultPlan,
		Governor:      gov,
		Hardened:      cfg.HardenedLibc,
	})
	if err != nil {
		return Result{}, err
	}
	code, runErr := m.Run()
	res := Result{ExitCode: code, Stdout: m.Output()}
	ms := m.MemStats()
	res.Stats.HeapAllocs = ms.HeapAllocs
	res.Stats.HeapAllocBytes = ms.HeapAllocBytes
	res.Stats.HeapInUseBytes = ms.HeapInUseBytes
	res.Stats.HeapPeakBytes = ms.HeapPeakBytes
	res.Stats.InjectedFaults = ms.InjectedFaults
	res.Stats.DeniedAllocs = ms.DeniedAllocs
	if mc, ok := m.Tool().(*memcheck.Tool); ok {
		res.Leaks = mc.Leaks()
	}
	// Everything the result needs has been read out of the machine. A run
	// that panicked never gets here, so it is never parked.
	if !cfg.NoCache && bufferBytes(m) <= maxParkedBytes {
		machinePool.Put(mod, cfg.Engine, m)
	}
	if runErr != nil {
		switch e := runErr.(type) {
		case *core.BugError:
			res.Bug = e
		case *nativemem.Fault:
			res.Fault = e
		case *nativevm.GlibcAbort:
			res.Fault = e
		default:
			res.collectDiagnostics(cfg.Engine.String(), "native")
			return res, runErr
		}
	}
	res.collectDiagnostics(cfg.Engine.String(), "native")
	return res, nil
}
