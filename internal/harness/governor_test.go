package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
)

// spinCase is a synthetic non-terminating corpus entry: the matrix must
// classify it as a timeout cell and keep going.
func spinCase() corpus.Case {
	return corpus.Case{
		Name:     "synthetic-spin-forever",
		Source:   "int main(void) { volatile long i = 0; for (;;) { i++; } return 0; }",
		Category: corpus.NullDereference, // arbitrary; never detected
	}
}

// TestRunCaseWithStepBudgetClassifiesTimeout: a non-terminating case under
// a step budget lands in the Timeout cell — not RunError, not missed.
func TestRunCaseWithStepBudgetClassifiesTimeout(t *testing.T) {
	for _, tool := range Tools() {
		cell := RunCaseWith(spinCase(), tool, CaseBudget{MaxSteps: 200_000})
		if !cell.Timeout {
			t.Errorf("%v: cell %+v, want Timeout", tool, cell)
		}
		if cell.RunError != "" {
			t.Errorf("%v: timeout misclassified as infrastructure error: %s", tool, cell.RunError)
		}
		if got := cell.Status(); got != "timeout" {
			t.Errorf("%v: Status() = %q, want \"timeout\"", tool, got)
		}
	}
}

// TestRunCaseWithWallClockClassifiesTimeout: the wall-clock deadline is
// honored per cell as well.
func TestRunCaseWithWallClockClassifiesTimeout(t *testing.T) {
	cell := RunCaseWith(spinCase(), SafeSulong, CaseBudget{MaxSteps: -1, Timeout: 100 * time.Millisecond})
	if !cell.Timeout || cell.RunError != "" {
		t.Fatalf("cell %+v, want Timeout with empty RunError", cell)
	}
	if !strings.Contains(cell.Report, "deadline") {
		t.Errorf("report %q does not mention the deadline", cell.Report)
	}
}

// TestMatrixDegradesGracefullyAndStaysDeterministic is the tentpole's
// matrix-level guarantee: one non-terminating case yields a Timeout cell
// while every other cell completes, and the rendered matrix is
// byte-identical at any worker count (step budgets are deterministic).
func TestMatrixDegradesGracefullyAndStaysDeterministic(t *testing.T) {
	normal := corpus.All()[0]
	opts := MatrixOptions{
		Cases:  []corpus.Case{normal, spinCase()},
		Tools:  []Tool{SafeSulong, NativeO0},
		Budget: CaseBudget{MaxSteps: 200_000},
	}

	var renders []string
	for _, workers := range []int{1, 2, 4} {
		o := opts
		o.Workers = workers
		m := RunDetectionMatrixWith(o)

		for _, tool := range o.Tools {
			if !m.Cells[spinCase().Name][tool].Timeout {
				t.Fatalf("workers=%d: spin case under %v is not a Timeout cell: %+v",
					workers, tool, m.Cells[spinCase().Name][tool])
			}
		}
		// The well-behaved case still completes: Safe Sulong detects it.
		if !m.Cells[normal.Name][SafeSulong].Detected {
			t.Fatalf("workers=%d: case %s no longer detected next to a hanging case: %+v",
				workers, normal.Name, m.Cells[normal.Name][SafeSulong])
		}
		if got := m.Timeouts(); len(got) != 2 {
			t.Fatalf("workers=%d: Timeouts() = %v, want 2 entries", workers, got)
		}
		renders = append(renders, m.Render())
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("matrix render differs between worker counts:\n--- workers=1 ---\n%s\n--- variant %d ---\n%s",
				renders[0], i, renders[i])
		}
	}
	if !strings.Contains(renders[0], "timeout") {
		t.Errorf("rendered matrix does not surface the timeout cells:\n%s", renders[0])
	}
}

// TestForEachPropagatesWorkerPanic: a panicking item surfaces on the
// caller's goroutine after the pool drains, instead of crashing the
// process from an anonymous goroutine.
func TestForEachPropagatesWorkerPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("re-raised panic %q does not carry the original value", r)
		}
	}()
	ForEach(16, 4, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}
