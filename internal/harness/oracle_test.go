package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/diag"
	"repro/internal/nativemem"
)

// TestClassifyTimeoutDeadlineOOMTable pins the one classifier over
// synthetic results: every error type and run result maps to its Outcome
// class, and the matrix cell derived from it carries the right flags.
func TestClassifyTimeoutDeadlineOOMTable(t *testing.T) {
	bug := &core.BugError{Kind: core.OutOfBounds, Access: core.Read, Size: 4, ObjSize: 4, Mem: core.HeapMem, Func: "main"}
	bugDiag := bug.Diagnostic("SafeSulong", "tier-0")
	ran := sulong.Result{ExitCode: 3, Stdout: "out", Stats: core.Stats{Steps: 42, HeapAllocs: 2, InjectedFaults: 1}}
	withBug := ran
	withBug.Bug, withBug.Diagnostics = bug, []*diag.Diagnostic{bugDiag}
	nullFault, wildFault := ran, ran
	nullFault.Fault = &nativemem.Fault{Addr: 8}
	wildFault.Fault = &nativemem.Fault{Addr: 0xdead0000, Write: true}

	type flags struct{ detected, crashed, timeout, oom, runError bool }
	for _, tc := range []struct {
		name   string
		res    sulong.Result
		err    error
		class  string
		report string
		status string
		cell   flags
	}{
		{"step limit", ran, &core.LimitError{What: "steps"}, "timeout", "execution limit exceeded: steps", "timeout", flags{timeout: true}},
		{"deadline", ran, &core.DeadlineError{Cause: "timeout 1s"}, "deadline", "execution deadline exceeded: timeout 1s", "timeout", flags{timeout: true}},
		{"hard oom", ran, &core.ResourceError{Resource: "global", Requested: 1 << 22, Limit: 1 << 20}, "oom", (&core.ResourceError{Resource: "global", Requested: 1 << 22, Limit: 1 << 20}).Error(), "oom", flags{oom: true}},
		{"engine panic", ran, &core.InternalError{Panic: "boom\nsecond line"}, "panic", "internal engine error: panic: boom", "error", flags{runError: true}},
		{"wrapped panic", ran, compileError{&core.InternalError{Msg: "unreachable"}}, "panic", "internal engine error: unreachable", "error", flags{runError: true}},
		{"plain error", ran, errors.New("sulong: unknown engine 9\nmore"), "error", "sulong: unknown engine 9\nmore", "error", flags{runError: true}},
		{"compile error", sulong.Result{}, compileError{errors.New("user.c:1: syntax error\nnote")}, "compile-error", "user.c:1: syntax error", "error", flags{runError: true}},
		{"bug", withBug, nil, "detected", bug.Error(), "DETECTED", flags{detected: true}},
		{"zero-page fault", nullFault, nil, "crashed", nullFault.Fault.Error(), "DETECTED", flags{detected: true, crashed: true}},
		{"other fault", wildFault, nil, "crashed", wildFault.Fault.Error(), "crashed", flags{crashed: true}},
		{"clean", ran, nil, "clean", "", "missed", flags{}},
	} {
		o := classify(tc.res, tc.err)
		if o.Class != tc.class || o.Report != tc.report {
			t.Errorf("%s: class %q report %q, want %q %q", tc.name, o.Class, o.Report, tc.class, tc.report)
		}
		if tc.res.ExitCode != 0 && (o.Exit != 3 || o.Stdout != "out" || o.Steps != 42 || o.HeapAllocs != 2 || o.InjectedFaults != 1) {
			t.Errorf("%s: observables not carried: %+v", tc.name, o)
		}
		d := o.detection()
		got := flags{d.Detected, d.Crashed, d.Timeout, d.OOM, d.RunError != ""}
		if got != tc.cell || d.Status() != tc.status {
			t.Errorf("%s: cell %+v status %q, want %+v %q", tc.name, got, d.Status(), tc.cell, tc.status)
		}
		if tc.cell.runError {
			if d.RunError != o.Report || d.Report != "" {
				t.Errorf("%s: RunError %q Report %q, want the outcome's report as RunError only", tc.name, d.RunError, d.Report)
			}
		} else if d.Report != o.Report {
			t.Errorf("%s: cell report %q, want %q", tc.name, d.Report, o.Report)
		}
		wantDiag, wantKind := (*diag.Diagnostic)(nil), ""
		if tc.class == "detected" {
			wantDiag, wantKind = bugDiag, bugDiag.Kind
		}
		if d.Diag != wantDiag || o.Kind != wantKind {
			t.Errorf("%s: Diag %v Kind %q, want %v %q", tc.name, d.Diag, o.Kind, wantDiag, wantKind)
		}
	}
}

// TestFaultSweepDeadlineIsNotTierMismatch: a wall-clock deadline stops each
// tier of a spinning case after a different number of steps. The sweep
// must not report that as a tier mismatch, as the campaign judge does not.
func TestFaultSweepDeadlineIsNotTierMismatch(t *testing.T) {
	b := CaseBudget{MaxSteps: -1, Timeout: 30 * time.Millisecond}
	for _, tier := range Tiers() {
		if o, _ := runCase(spinCase(), SafeSulong, tier.Budget(b)); o.Class != "deadline" {
			t.Fatalf("%v: class %q, want deadline", tier, o.Class)
		}
	}
	res := FaultSweep(SweepOptions{Cases: []corpus.Case{spinCase()}, Tools: []Tool{SafeSulong}, MaxNth: 1, Budget: b})
	if !res.OK() || res.Runs != len(Tiers()) {
		t.Fatalf("runs %d, want %d without violations:\n%s", res.Runs, len(Tiers()), res.Render())
	}
	if !strings.Contains(res.Render(), "no tier mismatches") {
		t.Errorf("render: %q", res.Render())
	}
}
