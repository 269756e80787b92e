// Command sulong compiles and runs a C program under one of the
// reproduction's execution engines.
//
// Usage:
//
//	sulong [-engine safe|native|asan|memcheck] [-O 0|3] [-emit-ir]
//	       [-jit] [-jitthreshold N] [-jitasync] [-osrthreshold N]
//	       [-leaks] [-maxheap N] [-failnth N] [-json report.json]
//	       file.c [program args...]
//
// -jitasync moves tier-1 compilation onto a background pool (installs land
// at dispatch points between guest instructions); -osrthreshold N (the
// library's documented value is 64) additionally compiles a loop whose back
// edge fires N times mid-activation via on-stack replacement, with
// speculative fast paths that deoptimize back to the interpreter when a
// guard fails. All combinations report identical program behavior — only
// warm-up changes.
//
// -maxheap bounds the guest's memory: heap allocations past the budget
// return NULL (so the guest's own error paths run), while stack or global
// exhaustion surfaces a structured resource error. -failnth/-failprob inject
// deterministic allocation failures to exercise the same paths on demand.
//
// Memory-error reports render with their backtraces: the access call stack
// plus, for heap errors, the allocation-site and free-site stacks (the
// ASan report shape). -json additionally writes the structured diagnostics.
//
// Exit status: the program's exit code; 2 on compile errors; 1 when a
// memory error or machine fault was reported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
)

func main() {
	engine := flag.String("engine", "safe", "execution engine: safe, native, asan, memcheck")
	optLevel := flag.Int("O", 0, "optimization level for the native pipeline (0 or 3)")
	emitIR := flag.Bool("emit-ir", false, "print the compiled SIR module and exit")
	useJIT := flag.Bool("jit", true, "enable the tier-1 dynamic compiler (safe engine)")
	jitThreshold := flag.Int64("jitthreshold", 0, "call count that triggers tier-up (0 = library default)")
	jitAsync := flag.Bool("jitasync", false, "compile hot functions on a background pool (safe engine)")
	osrThreshold := flag.Int64("osrthreshold", 0, "back-edge count that triggers on-stack replacement (0 = OSR off; safe engine)")
	leaks := flag.Bool("leaks", false, "report unfreed heap objects at exit (safe engine)")
	uar := flag.Bool("use-after-return", false, "detect accesses to stack objects of returned functions (safe engine)")
	runIR := flag.Bool("ir", false, "treat the input as an SIR module instead of C source")
	maxHeap := flag.Int64("maxheap", 0, "guest heap budget in bytes (0 = unlimited)")
	maxAlloc := flag.Int64("maxalloc", 0, "single-allocation cap in bytes (0 = engine default)")
	failNth := flag.Int64("failnth", 0, "fail the N-th guest heap allocation (0 = off)")
	failProb := flag.Float64("failprob", 0, "fail each guest heap allocation with this probability (0 = off)")
	faultSeed := flag.Int64("faultseed", 0, "PRNG seed for -failprob (deterministic)")
	jsonOut := flag.String("json", "", "write the run's structured diagnostics to this file")
	introspect := flag.Bool("introspect", false, "on a memory error, also print the involved object's identity (effective type, stored/accessed types, allocation site)")
	hardened := flag.Bool("hardened", false, "use the bounds-aware libc: bulk string writes truncate at the destination object's end instead of overflowing")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: sulong [flags] file.c [args...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	srcFile := flag.Arg(0)
	src, err := os.ReadFile(srcFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	engines := map[string]sulong.Engine{
		"safe":     sulong.EngineSafeSulong,
		"native":   sulong.EngineNative,
		"asan":     sulong.EngineASan,
		"memcheck": sulong.EngineMemcheck,
		"valgrind": sulong.EngineMemcheck,
	}
	eng, ok := engines[*engine]
	if !ok {
		fmt.Fprintf(os.Stderr, "sulong: unknown engine %q\n", *engine)
		os.Exit(2)
	}

	cfg := sulong.Config{
		Engine:               eng,
		OptLevel:             *optLevel,
		Args:                 flag.Args()[1:],
		Stdin:                os.Stdin,
		Stdout:               os.Stdout,
		JIT:                  *useJIT,
		JITThreshold:         *jitThreshold,
		JITAsync:             *jitAsync,
		OSRThreshold:         *osrThreshold,
		DetectLeaks:          *leaks,
		DetectUseAfterReturn: *uar,
		HardenedLibc:         *hardened,
		MaxHeapBytes:         *maxHeap,
		MaxAllocBytes:        *maxAlloc,
		FaultPlan:            fault.Plan{Seed: *faultSeed, FailNth: *failNth, FailProb: *failProb},
	}

	if *runIR {
		mod, err := ir.Parse(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := ir.Verify(mod); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res, err := sulong.RunModule(mod, cfg)
		finish(res, err, *engine, *jsonOut, *introspect)
		return
	}

	if *emitIR {
		mod, err := sulong.CompileFor(string(src), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(ir.Print(mod))
		return
	}

	res, err := sulong.Run(string(src), cfg)
	finish(res, err, *engine, *jsonOut, *introspect)
}

func finish(res sulong.Result, err error, engine, jsonOut string, introspect bool) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sulong:", err)
		// Guest resource exhaustion (-maxheap) is a run outcome, not a
		// toolchain failure: exit like a reported fault.
		var oom *core.ResourceError
		if errors.As(err, &oom) {
			os.Exit(1)
		}
		os.Exit(2)
	}
	if jsonOut != "" {
		// The report carries the structured diagnostics plus the tier-1
		// compiler's activity: a bail-out never changes behavior — the
		// function just stays interpreted — so it must be visible here
		// rather than diagnosed from a mysteriously slow run.
		payload := struct {
			Diagnostics interface{}       `json:"diagnostics"`
			JIT         *sulong.JITReport `json:"jit,omitempty"`
		}{res.Diagnostics, res.JIT}
		data, jerr := json.MarshalIndent(payload, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "sulong:", jerr)
			os.Exit(2)
		}
	}
	if res.Bug != nil {
		// Render the full diagnostic when backtraces are available: the
		// message plus the access / allocation-site / free-site stacks.
		if len(res.Diagnostics) > 0 {
			fmt.Fprintf(os.Stderr, "%s: %s\n", engine, res.Diagnostics[0].Render())
		} else {
			fmt.Fprintf(os.Stderr, "%s: %v\n", engine, res.Bug)
		}
		if introspect {
			printObjectReport(res.Bug)
		}
		os.Exit(1)
	}
	if res.Fault != nil {
		fmt.Fprintf(os.Stderr, "%v\n", res.Fault)
		os.Exit(1)
	}
	for _, leak := range res.Leaks {
		fmt.Fprintf(os.Stderr, "leak: %v\n", leak)
	}
	os.Exit(res.ExitCode)
}

// printObjectReport renders the -introspect view of a reported bug: the
// involved object's dynamic identity as the type plane saw it at the
// moment of the report.
func printObjectReport(bug *core.BugError) {
	fmt.Fprintln(os.Stderr, "object report:")
	name := bug.Obj
	if name == "" {
		name = "<unknown>"
	}
	fmt.Fprintf(os.Stderr, "  object:         %s (%s, %d bytes)\n", name, bug.Mem, bug.ObjSize)
	if bug.CType != "" {
		fmt.Fprintf(os.Stderr, "  effective type: %s\n", bug.CType)
	}
	if bug.Stored != "" {
		fmt.Fprintf(os.Stderr, "  stored as:      %s\n", bug.Stored)
	}
	if bug.Accessed != "" {
		fmt.Fprintf(os.Stderr, "  accessed as:    %s\n", bug.Accessed)
	}
	fmt.Fprintf(os.Stderr, "  access:         %s of size %d at offset %d\n", bug.Access, bug.Size, bug.Off)
	if !bug.AllocStack.IsEmpty() {
		fmt.Fprintf(os.Stderr, "  allocated at:\n%s\n", bug.AllocStack)
	}
	if !bug.FreeStack.IsEmpty() {
		fmt.Fprintf(os.Stderr, "  freed at:\n%s\n", bug.FreeStack)
	}
}
