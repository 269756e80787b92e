package sulong_test

import (
	"bytes"
	"strings"
	"testing"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jit"
)

// TestFramePoolFaultReuse is the frame-pool x fault-plane interaction test:
// an engine that just unwound an injected allocation failure must behave,
// on its next run, exactly like a fresh engine — pooled frames carry no
// residue from the aborted activation.
func TestFramePoolFaultReuse(t *testing.T) {
	const src = `
#include <stdlib.h>
#include <stdio.h>
int work(int n) {
    int *p = malloc(n * sizeof(int));
    if (!p) { printf("alloc failed\n"); return -1; }
    int s = 0;
    for (int i = 0; i < n; i++) p[i] = i;
    for (int i = 0; i < n; i++) s += p[i];
    free(p);
    return s;
}
int main(void) {
    printf("%d\n", work(100));
    return 0;
}`
	mod, err := sulong.CompileOnly(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func(plan fault.Plan) (*core.Engine, *bytes.Buffer) {
		var out bytes.Buffer
		e, err := core.NewEngine(mod, core.Config{
			Stdout:         &out,
			Tier1:          jit.New(),
			Tier1Threshold: 1,
			FaultPlan:      plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, &out
	}

	// Engine A: the first run hits the injected failure of allocation #1 and
	// takes the guest's error path; the second run is clean and consumes
	// frames recycled from the aborted first run.
	eng, out := build(fault.Plan{FailNth: 1})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("fault-injected run: %v", err)
	}
	first := out.String()
	if !strings.Contains(first, "alloc failed") {
		t.Fatalf("injected failure not observed; stdout:\n%s", first)
	}
	preSteps := eng.Stats().Steps
	if _, err := eng.Run(); err != nil {
		t.Fatalf("clean run after fault: %v", err)
	}
	reusedOut := strings.TrimPrefix(out.String(), first)
	reusedSteps := eng.Stats().Steps - preSteps

	// Engine B: fresh, no fault plan — the reference for the clean run.
	fresh, fout := build(fault.Plan{})
	if _, err := fresh.Run(); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if reusedOut != fout.String() {
		t.Errorf("recycled-frame run diverges from fresh engine:\n--- reused ---\n%s--- fresh ---\n%s",
			reusedOut, fout.String())
	}
	if reusedSteps != fresh.Stats().Steps {
		t.Errorf("step accounting diverges: reused engine %d, fresh engine %d",
			reusedSteps, fresh.Stats().Steps)
	}
}
