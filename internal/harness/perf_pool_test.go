package harness

import (
	"testing"
)

const perfPoolSrc = `#include <stdio.h>
int add(int a, int b) { return a + b; }
int main(void) {
	int s = 0;
	for (int i = 0; i < 200; i++) s = add(s, i);
	printf("%d\n", s);
	return 0;
}`

// TestPerfRunnerPoolReuse pins the satellite fix: rebuilding a managed
// Runner for the same program must reuse a parked engine, and the reused
// engine must do exactly the work a fresh one does. Step-count identity per
// sample row is the deterministic form of "sample variance doesn't
// regress": if every iteration executes the identical instruction stream,
// reuse cannot widen the sample distribution.
func TestPerfRunnerPoolReuse(t *testing.T) {
	iterate := func(r Runner, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := r.RunIteration(); err != nil {
				t.Fatal(err)
			}
		}
	}

	r1, err := NewRunner(SafeSulongPerf, perfPoolSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	iterate(r1, 3)
	m1 := r1.(*managedRunner)
	steps1 := m1.eng.Stats().Steps
	compiled1 := r1.CompiledFunctions()
	if steps1 == 0 {
		t.Fatal("no steps recorded on the fresh runner")
	}

	before := perfPool.Stats()
	r1.Close()
	r1.Close() // idempotent: must not double-park the engine
	after := perfPool.Stats()
	if after.Idle != before.Idle+1 {
		t.Fatalf("Close parked %d engines, want exactly 1", after.Idle-before.Idle)
	}

	r2, err := NewRunner(SafeSulongPerf, perfPoolSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := perfPool.Stats(); got.Hits != after.Hits+1 {
		t.Fatalf("rebuilding the runner did not reuse the parked engine: hits %d -> %d", after.Hits, got.Hits)
	}
	m2 := r2.(*managedRunner)
	if m2.eng != m1.eng {
		t.Fatal("pool returned a different engine for the same module")
	}
	iterate(r2, 3)
	if steps2 := m2.eng.Stats().Steps; steps2 != steps1 {
		t.Fatalf("reused engine ran %d steps over 3 iterations, fresh ran %d — reuse changed per-sample work", steps2, steps1)
	}
	if compiled2 := r2.CompiledFunctions(); compiled2 != compiled1 {
		t.Fatalf("reused runner compiled %d functions, fresh compiled %d", compiled2, compiled1)
	}
}
