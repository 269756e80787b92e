package harness

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

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

// flakyFailures controls the __flaky_probe builtin: each run decrements it;
// while positive the builtin panics (an engine bug by construction), after
// that it succeeds. Registered once; reset per test.
var flakyFailures atomic.Int64

func init() {
	core.RegisterBuiltin("__flaky_probe", func(e *core.Engine, fr *core.Frame, args []core.Value) (core.Value, error) {
		if flakyFailures.Add(-1) >= 0 {
			panic("flaky test double: injected engine failure")
		}
		return core.Value{}, nil
	})
}

func flakyCase() corpus.Case {
	return corpus.Case{
		Name:     "synthetic-flaky-probe",
		Source:   "void __flaky_probe(void);\nint main(void) { __flaky_probe(); return 0; }",
		Category: corpus.NullDereference, // arbitrary; never detected
	}
}

// TestRetryRecoversTransientInternalError: a cell whose engine dies twice
// and then succeeds is retried under MaxRetries and lands as a normal cell
// with its attempt count recorded.
func TestRetryRecoversTransientInternalError(t *testing.T) {
	flakyFailures.Store(2)
	cell := RunCaseWith(flakyCase(), SafeSulong, CaseBudget{MaxRetries: 3})
	if cell.Quarantined || cell.RunError != "" {
		t.Fatalf("cell %+v, want recovered run", cell)
	}
	if cell.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (two failures + one success)", cell.Attempts)
	}
}

// TestPersistentInternalErrorIsQuarantined: a cell that fails on every
// attempt is quarantined with a deterministic single-line reason instead of
// aborting the matrix.
func TestPersistentInternalErrorIsQuarantined(t *testing.T) {
	flakyFailures.Store(1 << 30) // effectively always fail
	defer flakyFailures.Store(0)
	cell := RunCaseWith(flakyCase(), SafeSulong, CaseBudget{MaxRetries: 1})
	if !cell.Quarantined {
		t.Fatalf("cell %+v, want Quarantined", cell)
	}
	if cell.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (initial + one retry)", cell.Attempts)
	}
	if got := cell.Status(); got != "quarantined" {
		t.Fatalf("Status() = %q, want \"quarantined\"", got)
	}
	if !strings.HasPrefix(cell.RunError, "quarantined after 2 attempt(s): ") {
		t.Fatalf("RunError = %q, want quarantine prefix", cell.RunError)
	}
	if strings.Contains(cell.RunError, "\n") {
		t.Fatalf("quarantine reason is not single-line: %q", cell.RunError)
	}

	// Matrix level: the quarantined cell is listed and the run completes.
	flakyFailures.Store(1 << 30)
	m := RunDetectionMatrixWith(MatrixOptions{
		Cases:  []corpus.Case{corpus.All()[0], flakyCase()},
		Tools:  []Tool{SafeSulong},
		Budget: CaseBudget{MaxRetries: 1},
	})
	if len(m.Quarantined) != 1 || !strings.Contains(m.Quarantined[0], flakyCase().Name) {
		t.Fatalf("MatrixResult.Quarantined = %v, want the flaky case", m.Quarantined)
	}
	if !m.Cells[corpus.All()[0].Name][SafeSulong].Detected {
		t.Fatal("well-behaved case no longer detected next to a quarantined cell")
	}
	if !strings.Contains(m.Render(), "Quarantined cells") {
		t.Error("render does not surface the quarantine section")
	}
}
