package harness

// Oracle adapters for the differential fuzzing campaign (internal/campaign),
// and the one classifier every driver shares.
//
// The detection matrix compares *classifications* of known-buggy corpus
// programs; the campaign compares everything observable about *generated*
// programs across tiers and tools — a wrong-code bug shows up as identical
// classifications with different stdout, exit codes, or step counts, which
// Detection cannot express. Outcome carries the full comparison surface;
// Classify produces it for every driver, and a matrix cell is derived from
// it (Outcome.detection).

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/nativemem"
)

// Outcome is everything the campaign's oracles compare about one run of one
// program under one tool. Deterministic for a given (source, tool, budget)
// as long as the budget avoids wall-clock deadlines: every class below is
// decided by step budgets, fault schedules, or program behavior, never by
// elapsed time.
type Outcome struct {
	// Class is the coarse classification: "detected", "clean", "crashed",
	// "timeout" (step budget exhausted — deterministic), "deadline"
	// (wall-clock expiry — NOT deterministic; the campaign quarantines the
	// seed instead of judging it), "oom", "compile-error", "panic" (a
	// contained engine or compiler death — always a finding), or "error"
	// (other infrastructure failure).
	Class string `json:"class"`
	// Kind is the structured diagnostic's bug classification when the tool
	// produced one ("out-of-bounds access", "use-after-free", ...) — stable
	// across engines for the same bug class, which makes it the minimizer's
	// signature anchor: line numbers in Report shift as lines are deleted,
	// Kind does not.
	Kind string `json:"kind,omitempty"`
	// Report is the first line of the tool's report ("" when clean).
	Report string `json:"report,omitempty"`
	// Stdout and Exit are the program's observable behavior. Comparable
	// across tiers of the same engine; not across engine families (their
	// libc internals legitimately differ on undefined behavior).
	Stdout string `json:"stdout,omitempty"`
	Exit   int    `json:"exit"`
	// Steps and Calls are the managed engine's exact instruction and call
	// counts, the tier parity ledger. Byte-identical between tier-0,
	// forced tier-2, and async+OSR runs of the same program, so any
	// difference is a find. Zero for the native family.
	Steps int64 `json:"steps,omitempty"`
	Calls int64 `json:"calls,omitempty"`
	// The heap counters mirror the fault plane's accounting, which is
	// tier-invariant for heap traffic by construction.
	HeapAllocs     int64 `json:"heapAllocs,omitempty"`
	HeapAllocBytes int64 `json:"heapAllocBytes,omitempty"`
	HeapInUseBytes int64 `json:"heapInUseBytes,omitempty"`
	InjectedFaults int64 `json:"injectedFaults,omitempty"`
	DeniedAllocs   int64 `json:"deniedAllocs,omitempty"`
	// Diagnostics is every structured report of the run (the bug, then
	// leaks). Diff renders them, with their stacks, only while comparing.
	Diagnostics []*diag.Diagnostic `json:"-"`

	// zeroPage marks a crash that trapped on the zero page: what a matrix
	// cell needs beyond the class (see detection).
	zeroPage bool
}

// Signature renders the outcome compactly and deterministically for journal
// records and divergence reports. Stdout beyond 64 bytes is folded into a
// hash so records stay small while remaining byte-exact comparators.
func (o Outcome) Signature() string {
	out := o.Stdout
	if len(out) > 64 {
		sum := sha256.Sum256([]byte(out))
		out = fmt.Sprintf("sha256:%x(len=%d)", sum[:8], len(o.Stdout))
	}
	return fmt.Sprintf("%s exit=%d steps=%d allocs=%d faults=%d report=%q stdout=%q",
		o.Class, o.Exit, o.Steps, o.HeapAllocs, o.InjectedFaults, firstLine(o.Report), out)
}

// Diff names the first observable on which o differs from ref, in one line
// quoting both values ("steps: 120 != 118"), or returns "" when every
// observable matches: class, report, kind, exit, Steps, Calls, the five
// heap counters, stdout, and each diagnostic's render with its stacks.
func (o Outcome) Diff(ref Outcome) string {
	for _, f := range [...]struct {
		name string
		a, b any
	}{
		{"class", o.Class, ref.Class},
		{"report", o.Report, ref.Report},
		{"kind", o.Kind, ref.Kind},
		{"exit", o.Exit, ref.Exit},
		{"steps", o.Steps, ref.Steps},
		{"calls", o.Calls, ref.Calls},
		{"heapAllocs", o.HeapAllocs, ref.HeapAllocs},
		{"heapAllocBytes", o.HeapAllocBytes, ref.HeapAllocBytes},
		{"heapInUseBytes", o.HeapInUseBytes, ref.HeapInUseBytes},
		{"injectedFaults", o.InjectedFaults, ref.InjectedFaults},
		{"deniedAllocs", o.DeniedAllocs, ref.DeniedAllocs},
		{"stdout", o.Stdout, ref.Stdout},
		{"diagnostics", len(o.Diagnostics), len(ref.Diagnostics)},
	} {
		if f.a != f.b {
			return f.name + ": " + differingLine(f.a, f.b)
		}
	}
	for i, d := range o.Diagnostics {
		if a, b := d.Render(), ref.Diagnostics[i].Render(); a != b {
			return fmt.Sprintf("diagnostic %d: %s", i, differingLine(a, b))
		}
	}
	return ""
}

// differingLine quotes two unequal values. Strings are cut to at most 60
// bytes of the line holding their first differing byte, starting up to 20
// bytes before it, and the line is numbered when it is not the first.
func differingLine(a, b any) string {
	x, ok := a.(string)
	if !ok {
		return fmt.Sprintf("%v != %v", a, b)
	}
	y := b.(string)
	j := 0
	for j < len(x) && j < len(y) && x[j] == y[j] {
		j++
	}
	line, at := strings.LastIndexByte(x[:j], '\n')+1, ""
	if line > 0 {
		at = fmt.Sprintf("line %d: ", strings.Count(x[:line], "\n")+1)
	}
	from := max(line, j-20)
	return fmt.Sprintf("%s%q != %q", at, excerpt(x[from:]), excerpt(y[from:]))
}

// excerpt is the first line of s, cut to 60 bytes.
func excerpt(s string) string {
	if s = firstLine(s); len(s) > 60 {
		return s[:60] + "…"
	}
	return s
}

// Detected reports whether the tool positively identified a bug.
func (o Outcome) Detected() bool { return o.Class == "detected" }

// compileError marks an error from the compile stage for Classify.
type compileError struct{ error }

func (e compileError) Unwrap() error { return e.error }

// Classify maps a compile or run result to its Outcome; it is the only
// place an error becomes a class. It copies counters and the diagnostics
// slice header and renders nothing. A panic (from either stage) and a compile
// error keep only their report's first line. Without an error the run is
// "detected" when the tool reported a bug, "crashed" when the machine
// trapped, and "clean" otherwise.
func Classify(res sulong.Result, err error) Outcome {
	o := Outcome{
		Stdout:         res.Stdout,
		Exit:           res.ExitCode,
		Steps:          res.Stats.Steps,
		Calls:          res.Stats.Calls,
		HeapAllocs:     res.Stats.HeapAllocs,
		HeapAllocBytes: res.Stats.HeapAllocBytes,
		HeapInUseBytes: res.Stats.HeapInUseBytes,
		InjectedFaults: res.Stats.InjectedFaults,
		DeniedAllocs:   res.Stats.DeniedAllocs,
		Diagnostics:    res.Diagnostics,
	}
	if err != nil {
		var limit *core.LimitError
		var deadline *core.DeadlineError
		var oom *core.ResourceError
		var ie *core.InternalError
		var ce compileError
		switch {
		case errors.As(err, &limit):
			o.Class, o.Report = "timeout", err.Error()
		case errors.As(err, &deadline):
			o.Class, o.Report = "deadline", err.Error()
		case errors.As(err, &oom):
			o.Class, o.Report = "oom", err.Error()
		case errors.As(err, &ie):
			o.Class, o.Report = "panic", firstLine(err.Error())
		case errors.As(err, &ce):
			o.Class, o.Report = "compile-error", firstLine(err.Error())
		default:
			o.Class, o.Report = "error", err.Error()
		}
		return o
	}
	switch {
	case res.Bug != nil:
		o.Class, o.Report = "detected", res.Bug.Error()
		if len(res.Diagnostics) > 0 {
			o.Kind = res.Diagnostics[0].Kind
		}
	case res.Fault != nil:
		o.Class, o.Report = "crashed", res.Fault.Error()
		f, ok := res.Fault.(*nativemem.Fault)
		o.zeroPage = ok && f.Addr < nativemem.PageSize
	default:
		o.Class = "clean"
	}
	return o
}

// RunSource compiles and executes an arbitrary C program (not a registered
// corpus case) under one tool within the given budget, and captures the
// full comparison surface. It never panics and never kills the process:
// compile-stage and engine panics are contained (class "panic" — for a
// generated program that is the finding itself, not a retry candidate), and
// any harness-side panic lands in class "error".
func RunSource(src string, tool Tool, b CaseBudget) Outcome {
	return compileAndRun(corpus.Case{Source: src}, tool, b)
}

// compileAndRun is one attempt at a case: CompileOutcome, then the module
// run with the case's Args and Stdin.
func compileAndRun(c corpus.Case, tool Tool, b CaseBudget) Outcome {
	mod, bad := CompileOutcome(c.Source, tool, b)
	if bad != nil {
		return *bad
	}
	return runModule(mod, c, tool, b)
}

// CompileOutcome runs just the compile stage of RunSource, returning the
// module on success or the Outcome that ends the run on failure. Callers
// that judge one program under several same-toolchain oracles (the
// campaign's tier-parity and fault oracles all use SafeSulong's pipeline)
// compile once and feed the module to RunModule per oracle.
func CompileOutcome(src string, tool Tool, b CaseBudget) (m *ir.Module, bad *Outcome) {
	defer func() {
		if r := recover(); r != nil {
			m, bad = nil, &Outcome{Class: "error", Report: fmt.Sprintf("internal harness error: panic: %v", r)}
		}
	}()
	mod, err := sulong.CompileFor(src, b.config(corpus.Case{}, tool))
	if err != nil {
		o := Classify(sulong.Result{}, compileError{err})
		return nil, &o
	}
	return mod, nil
}

// ReleaseModule retires a CompileOutcome module from the process-wide reuse
// layers once the caller's last run of it has finished. See
// sulong.ReleaseModule.
func ReleaseModule(mod *ir.Module) { sulong.ReleaseModule(mod) }

// RunModule executes an already-compiled module under one tool within the
// given budget (the execution half of RunSource).
func RunModule(mod *ir.Module, tool Tool, b CaseBudget) Outcome {
	return runModule(mod, corpus.Case{}, tool, b)
}

// runModule is RunModule with the case's Args and Stdin.
func runModule(mod *ir.Module, c corpus.Case, tool Tool, b CaseBudget) (o Outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = Outcome{Class: "error", Report: fmt.Sprintf("internal harness error: panic: %v", r)}
		}
	}()
	return Classify(sulong.RunModuleCtx(b.ctx(), mod, b.config(c, tool)))
}
