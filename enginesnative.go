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

// runNativeFamily executes a module on the simulated native machine,
// optionally under ASan or memcheck instrumentation.
func runNativeFamily(mod *ir.Module, cfg Config, gov *core.Governor) (Result, error) {
	ncfg, err := NativeConfig(cfg.Engine)
	if err != nil {
		return Result{}, err
	}
	ncfg.Args = cfg.Args
	ncfg.Env = cfg.Env
	ncfg.Stdin = cfg.Stdin
	ncfg.Stdout = cfg.Stdout
	ncfg.MaxSteps = cfg.MaxSteps
	ncfg.MaxHeapBytes = cfg.MaxHeapBytes
	ncfg.MaxAllocBytes = cfg.MaxAllocBytes
	ncfg.FaultPlan = cfg.FaultPlan
	ncfg.Governor = gov
	ncfg.Hardened = cfg.HardenedLibc

	m, err := nativevm.New(mod, ncfg)
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
	if mc, ok := ncfg.Tool.(*memcheck.Tool); ok {
		res.Leaks = mc.Leaks()
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
