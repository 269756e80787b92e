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
		o := Classify(tc.res, tc.err)
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
		tb := b
		tb.Tier = tier
		if o, _ := runCase(spinCase(), SafeSulong, tb); o.Class != "deadline" {
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

// TestDiffNamesEveryObservable pins Outcome.Diff, the one tier-parity
// comparison: two Outcomes that differ in exactly one pinned observable
// compare unequal, and the one-line verdict names that observable. The
// tier provenance label, which renders exclude by design, is not compared.
func TestDiffNamesEveryObservable(t *testing.T) {
	stack := func(fns ...string) diag.Stack {
		var frames []diag.Frame
		for i, fn := range fns {
			frames = append(frames, diag.Frame{Func: fn, Line: 10 + i})
		}
		return diag.FromFrames(frames)
	}
	uaf := &diag.Diagnostic{
		Kind: "use-after-free", Message: "use-after-free read in use (line 10)", Tier: "interp",
		Access: stack("use", "main"), Alloc: stack("make", "main"), Free: stack("drop", "main"),
	}
	leak := &diag.Diagnostic{Kind: "memory leak", Message: "memory leak", Alloc: stack("make", "main")}
	base := Outcome{
		Class: "detected", Kind: "use-after-free", Report: uaf.Message, Stdout: "a\nb\n", Exit: 1,
		Steps: 100, Calls: 7, HeapAllocs: 3, HeapAllocBytes: 48, HeapInUseBytes: 16,
		InjectedFaults: 1, DeniedAllocs: 2, Diagnostics: []*diag.Diagnostic{uaf, leak},
	}
	withDiag := func(i int, edit func(*diag.Diagnostic)) func(*Outcome) {
		return func(o *Outcome) {
			d := *o.Diagnostics[i]
			edit(&d)
			o.Diagnostics = append([]*diag.Diagnostic(nil), o.Diagnostics...)
			o.Diagnostics[i] = &d
		}
	}
	if d := base.Diff(base); d != "" {
		t.Fatalf("an Outcome differs from itself: %s", d)
	}
	if d := base.Diff(Outcome{}); !strings.HasPrefix(d, "class: ") {
		t.Errorf("Diff against the zero Outcome = %q, want the class named first", d)
	}
	for _, tc := range []struct {
		want string
		edit func(*Outcome)
	}{
		{"class: ", func(o *Outcome) { o.Class = "crashed" }},
		{"report: ", func(o *Outcome) { o.Report = "other" }},
		{"kind: ", func(o *Outcome) { o.Kind = "double free" }},
		{"exit: 2 != 1", func(o *Outcome) { o.Exit = 2 }},
		{"steps: 101 != 100", func(o *Outcome) { o.Steps = 101 }},
		{"calls: 8 != 7", func(o *Outcome) { o.Calls = 8 }},
		{"heapAllocs: ", func(o *Outcome) { o.HeapAllocs++ }},
		{"heapAllocBytes: ", func(o *Outcome) { o.HeapAllocBytes++ }},
		{"heapInUseBytes: ", func(o *Outcome) { o.HeapInUseBytes++ }},
		{"injectedFaults: ", func(o *Outcome) { o.InjectedFaults++ }},
		{"deniedAllocs: ", func(o *Outcome) { o.DeniedAllocs++ }},
		{`stdout: line 2: "c" != "b"`, func(o *Outcome) { o.Stdout = "a\nc\n" }},
		{"diagnostics: 1 != 2", func(o *Outcome) { o.Diagnostics = o.Diagnostics[:1] }},
		{"diagnostic 0: ", withDiag(0, func(d *diag.Diagnostic) { d.Message = "use-after-free read in use (line 11)" })},
		{"diagnostic 0: line 2: ", withDiag(0, func(d *diag.Diagnostic) { d.Access = stack("use2", "main") })},
		{"diagnostic 0: line 5: ", withDiag(0, func(d *diag.Diagnostic) { d.Free = stack("drop2", "main") })},
		{"diagnostic 0: line 8: ", withDiag(0, func(d *diag.Diagnostic) { d.Alloc = stack("make2", "main") })},
		{"diagnostic 1: ", withDiag(1, func(d *diag.Diagnostic) { d.Alloc = stack("make") })},
	} {
		o := base
		tc.edit(&o)
		got := o.Diff(base)
		if !strings.HasPrefix(got, tc.want) || strings.Contains(got, "\n") {
			t.Errorf("Diff = %q, want one line starting %q", got, tc.want)
		}
	}
	long, longRef := base, base
	long.Stdout, longRef.Stdout = strings.Repeat("a", 100)+"X", strings.Repeat("a", 100)+"Y"
	if d := long.Diff(longRef); d != `stdout: "aaaaaaaaaaaaaaaaaaaaX" != "aaaaaaaaaaaaaaaaaaaaY"` {
		t.Errorf("Diff of long lines = %q, want the window around the first differing byte", d)
	}
	provenance := base
	withDiag(0, func(d *diag.Diagnostic) { d.Tier = "jit" })(&provenance)
	if d := provenance.Diff(base); d != "" {
		t.Errorf("tier provenance compared: %s", d)
	}
}

// TestClassifyCarriesEveryObservable: Classify copies every counter Diff
// compares and the whole diagnostics slice, not only the first report.
func TestClassifyCarriesEveryObservable(t *testing.T) {
	bug := &core.BugError{Kind: core.UseAfterFree, Access: core.Read, Size: 8, Mem: core.HeapMem, Func: "main"}
	leak := &core.BugError{Kind: core.MemoryLeak, Mem: core.HeapMem}
	diags := []*diag.Diagnostic{bug.Diagnostic("SafeSulong", "interp"), leak.Diagnostic("SafeSulong", "interp")}
	res := sulong.Result{ExitCode: 1, Stdout: "x", Bug: bug, Diagnostics: diags, Stats: core.Stats{
		Steps: 1, Calls: 2, HeapAllocs: 3, HeapAllocBytes: 4, HeapInUseBytes: 5, InjectedFaults: 6, DeniedAllocs: 7,
	}}
	want := Outcome{
		Class: "detected", Kind: diags[0].Kind, Report: bug.Error(), Stdout: "x", Exit: 1,
		Steps: 1, Calls: 2, HeapAllocs: 3, HeapAllocBytes: 4, HeapInUseBytes: 5, InjectedFaults: 6, DeniedAllocs: 7,
		Diagnostics: diags,
	}
	if d := Classify(res, nil).Diff(want); d != "" {
		t.Errorf("Classify dropped an observable: %s", d)
	}
}
