package harness

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
)

// oomCase is a synthetic corpus entry whose 4 MiB global cannot fit in a
// 1 MiB guest budget: every engine must classify it "oom" (hard exhaustion —
// C cannot report a failed global as NULL) while the rest of the matrix
// completes.
func oomCase() corpus.Case {
	return corpus.Case{
		Name:     "synthetic-global-oom",
		Source:   "char big[1 << 22];\nint main(void) { big[0] = 1; return (int)big[0]; }",
		Category: corpus.NullDereference, // arbitrary; never detected
	}
}

// TestMatrixClassifiesOOMDeterministically: a case that exhausts the guest
// heap budget renders as an "oom" cell — not a crash, not an infrastructure
// error — at every worker count, byte-identically.
func TestMatrixClassifiesOOMDeterministically(t *testing.T) {
	normal := corpus.All()[0]
	opts := MatrixOptions{
		Cases:  []corpus.Case{normal, oomCase()},
		Tools:  []Tool{SafeSulong, ASanO0, NativeO0},
		Budget: CaseBudget{MaxHeapBytes: 1 << 20},
	}

	var renders []string
	for _, workers := range []int{1, 2, 8} {
		o := opts
		o.Workers = workers
		m := RunDetectionMatrixWith(o)

		for _, tool := range o.Tools {
			cell := m.Cells[oomCase().Name][tool]
			if !cell.OOM {
				t.Fatalf("workers=%d: oom case under %v is not an OOM cell: %+v", workers, tool, cell)
			}
			if got := cell.Status(); got != "oom" {
				t.Fatalf("workers=%d: Status() = %q, want \"oom\"", workers, got)
			}
			if cell.RunError != "" {
				t.Fatalf("workers=%d: oom misclassified as infrastructure error: %s", workers, cell.RunError)
			}
		}
		if !m.Cells[normal.Name][SafeSulong].Detected {
			t.Fatalf("workers=%d: case %s no longer detected next to an oom case", workers, normal.Name)
		}
		if got := m.OOMs(); len(got) != len(o.Tools) {
			t.Fatalf("workers=%d: OOMs() = %v, want %d entries", workers, got, len(o.Tools))
		}
		renders = append(renders, m.Render())
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("matrix render differs between worker counts:\n--- workers=1 ---\n%s\n--- variant %d ---\n%s",
				renders[0], i, renders[i])
		}
	}
	if !strings.Contains(renders[0], "oom") {
		t.Errorf("rendered matrix does not surface the oom cell:\n%s", renders[0])
	}
}

// TestMatrixFaultPlanDeterministicAcrossWorkers: an injected allocation-
// failure schedule produces byte-identical renders and structured
// diagnostics at any worker count — the fault plane never introduces
// scheduling-dependent behavior.
func TestMatrixFaultPlanDeterministicAcrossWorkers(t *testing.T) {
	cases := corpus.All()
	if len(cases) > 8 {
		cases = cases[:8]
	}
	opts := MatrixOptions{
		Cases:  cases,
		Tools:  []Tool{SafeSulong, NativeO0},
		Budget: CaseBudget{FaultPlan: fault.Plan{FailNth: 2}},
	}

	var renders, diags []string
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		m := RunDetectionMatrixWith(o)
		renders = append(renders, m.Render())
		data, err := json.Marshal(m.Diagnostics())
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, string(data))
	}
	if renders[0] != renders[1] {
		t.Fatalf("renders differ between -parallel 1 and 8:\n%s\n---\n%s", renders[0], renders[1])
	}
	if diags[0] != diags[1] {
		t.Fatal("structured diagnostics differ between -parallel 1 and 8")
	}
}

// TestFaultSweepDeterministicAcrossWorkers: the sweep's result does not
// depend on how many workers claimed its cells or on whether the caches were
// warm. Two cases that fail to compile put one violation in each of their
// cells, so the violation list also pins the (case, nth, tool) order the
// grid is assembled in.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	all := corpus.All()
	bad := []corpus.Case{
		{Name: "synthetic-lower-error", Source: "int main(void) { return undeclared; }"},
		{Name: "synthetic-parse-error", Source: "int main(void) {"},
	}
	cases := []corpus.Case{all[0], bad[0], all[1], bad[1]}
	const maxNth = 2
	run := func(workers int) *SweepResult {
		return FaultSweep(SweepOptions{Cases: cases, MaxNth: maxNth, Workers: workers})
	}

	sulong.ResetCache()
	want := run(1)
	var wantViolations []SweepViolation
	for _, c := range bad {
		for nth := 1; nth <= maxNth; nth++ {
			for _, tool := range Tools() {
				wantViolations = append(wantViolations, SweepViolation{Case: c.Name, Tool: tool.String(), Nth: nth, Kind: "panic"})
			}
		}
	}
	if len(want.Violations) != len(wantViolations) {
		t.Fatalf("%d violations, want %d:\n%s", len(want.Violations), len(wantViolations), want.Render())
	}
	for i, v := range want.Violations {
		v.Detail = ""
		if v != wantViolations[i] {
			t.Fatalf("violation %d is %+v, want %+v", i, v, wantViolations[i])
		}
	}
	// Each good case runs every tool once per nth, plus two more tiers for
	// SafeSulong; a bad case stops each cell at its first run.
	if wantRuns := 2*maxNth*(len(Tools())+2) + 2*maxNth*len(Tools()); want.Runs != wantRuns {
		t.Fatalf("Runs = %d, want %d", want.Runs, wantRuns)
	}

	for _, v := range []struct {
		name    string
		workers int
		cold    bool
	}{{"warm/workers=4", 4, false}, {"cold/workers=4", 4, true}, {"warm/workers=1", 1, false}} {
		if v.cold {
			sulong.ResetCache()
		}
		got := run(v.workers)
		if got.Render() != want.Render() || got.Runs != want.Runs || !reflect.DeepEqual(got.Violations, want.Violations) {
			t.Errorf("%s differs from cold/workers=1:\n%s\n---\n%s", v.name, got.Render(), want.Render())
		}
	}
}

// TestFaultSweepSubsetClean: the FailNth sweep over a corpus slice finds no
// engine panics and no tier mismatches (the full-corpus sweep runs in
// `make faultcheck` via `bugbench -faultsweep`).
func TestFaultSweepSubsetClean(t *testing.T) {
	cases := corpus.All()
	if len(cases) > 6 {
		cases = cases[:6]
	}
	res := FaultSweep(SweepOptions{Cases: cases, MaxNth: 2})
	if !res.OK() {
		t.Fatalf("sweep violations:\n%s", res.Render())
	}
	if want := len(cases)*2*len(Tools()) + len(cases)*2*2; res.Runs != want {
		// Every SafeSulong cell runs once per tier: tier-0, forced tier-1
		// and async+OSR.
		t.Fatalf("Runs = %d, want %d", res.Runs, want)
	}
	if !strings.Contains(res.Render(), "no engine panics") {
		t.Errorf("render: %q", res.Render())
	}
}

// __panic_probe is a builtin that panics: an engine bug by construction.
func init() {
	core.RegisterBuiltin("__panic_probe", func(e *core.Engine, fr *core.Frame, args []core.Value) (core.Value, error) {
		panic("test double: injected engine failure")
	})
}

func panicCase() corpus.Case {
	return corpus.Case{
		Name:     "synthetic-panic-probe",
		Source:   "void __panic_probe(void);\nint main(void) { __panic_probe(); return 0; }",
		Category: corpus.NullDereference, // arbitrary; never detected
	}
}

// TestPersistentInternalErrorIsQuarantined: a cell whose engine panics is
// quarantined after its one run, with a deterministic single-line reason,
// instead of aborting the matrix.
func TestPersistentInternalErrorIsQuarantined(t *testing.T) {
	cell := RunCaseWith(panicCase(), SafeSulong, CaseBudget{})
	if !cell.Quarantined {
		t.Fatalf("cell %+v, want Quarantined", cell)
	}
	if got := cell.Status(); got != "quarantined" {
		t.Fatalf("Status() = %q, want \"quarantined\"", got)
	}
	if !strings.HasPrefix(cell.RunError, "quarantined: internal engine error: panic: ") {
		t.Fatalf("RunError = %q, want quarantine prefix", cell.RunError)
	}
	if strings.Contains(cell.RunError, "\n") {
		t.Fatalf("quarantine reason is not single-line: %q", cell.RunError)
	}

	// Matrix level: the quarantined cell is listed and the run completes.
	m := RunDetectionMatrixWith(MatrixOptions{
		Cases: []corpus.Case{corpus.All()[0], panicCase()},
		Tools: []Tool{SafeSulong},
	})
	if len(m.Quarantined) != 1 || !strings.Contains(m.Quarantined[0], panicCase().Name) {
		t.Fatalf("MatrixResult.Quarantined = %v, want the panicking case", m.Quarantined)
	}
	if !m.Cells[corpus.All()[0].Name][SafeSulong].Detected {
		t.Fatal("well-behaved case no longer detected next to a quarantined cell")
	}
	if !strings.Contains(m.Render(), "Quarantined cells") {
		t.Error("render does not surface the quarantine section")
	}
}

// The sweep's Progress callback reports every completed cell exactly once,
// serialized and monotonic — the same contract the campaign driver's
// per-seed progress hook relies on.
func TestFaultSweepProgress(t *testing.T) {
	cases := corpus.All()[:2]
	var mu sync.Mutex
	var calls [][2]int
	FaultSweep(SweepOptions{
		Cases: cases, MaxNth: 2, Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			calls = append(calls, [2]int{done, total})
			mu.Unlock()
		},
	})
	total := len(cases) * 2 * len(Tools())
	if len(calls) != total {
		t.Fatalf("Progress called %d times, want %d", len(calls), total)
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != total {
			t.Fatalf("call %d = (%d, %d), want (%d, %d)", i, c[0], c[1], i+1, total)
		}
	}
}
