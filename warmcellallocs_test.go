//go:build !race

package sulong_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/harness"
)

// warmCellAllocBudget bounds the allocations of one warm matrix cell, per
// column: a cache hit, a pooled engine or machine reset for the run, the
// run, and the Detection built from it. What is left is what the run
// itself makes (Safe Sulong's guest objects, the strings libc reads out of
// guest memory, a report's backtraces and text) and what the Result keeps.
// Before engines and machines kept their stdio buffers and fault injector,
// machines their libc binding, and cache hits stopped copying the source,
// the same cells made 425/70 (Safe Sulong, clean/detecting), 19/28 (ASan),
// 19/44 (Valgrind) and 17/23 (native) allocations.
var warmCellAllocBudget = map[harness.Tool][2]float64{ // clean, detecting
	harness.SafeSulong: {409, 53},
	harness.ASanO0:     {6, 14},
	harness.ASanO3:     {6, 14},
	harness.ValgrindO0: {4, 27},
	harness.ValgrindO3: {4, 27},
	harness.NativeO0:   {4, 6},
}

// TestWarmCellAllocs pins what a warm matrix cell allocates, for a clean
// program (a corpus case's bundled fix) and a detecting one, under every
// column. The race detector's allocations would swamp it.
func TestWarmCellAllocs(t *testing.T) {
	bug, ok := corpus.Get("heap-off-by-one-copy")
	if !ok {
		t.Fatal("corpus case heap-off-by-one-copy is gone")
	}
	fixed, ok := corpus.Get("stack-off-by-one-sum")
	if !ok || fixed.Fixed == "" {
		t.Fatal("corpus case stack-off-by-one-sum or its fix is gone")
	}
	clean := corpus.Case{Name: fixed.Name + "-fixed", Source: fixed.Fixed}
	for _, tool := range harness.Tools() {
		for i, c := range []corpus.Case{clean, bug} {
			harness.RunCase(c, tool) // compile, build the engine or machine
			harness.RunCase(c, tool) // grow what a reset keeps
			got := testing.AllocsPerRun(20, func() { harness.RunCase(c, tool) })
			if budget := warmCellAllocBudget[tool][i]; got > budget {
				t.Errorf("%s under %v: %.0f allocations a warm cell, budget %.0f", c.Name, tool, got, budget)
			} else {
				t.Logf("%s under %v: %.0f allocations a warm cell, budget %.0f", c.Name, tool, got, budget)
			}
		}
	}
}
