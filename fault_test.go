package sulong_test

import (
	"fmt"
	"strings"
	"testing"

	sulong "repro"
	"repro/internal/fault"
)

// faultConfigs enumerates every execution engine (the managed engine in both
// tiers, plus the three native-machine variants) so libc semantics can be
// asserted differentially. The returned label names the engine in failures.
func faultConfigs() []struct {
	label string
	cfg   sulong.Config
} {
	return []struct {
		label string
		cfg   sulong.Config
	}{
		{"safe/tier-0", sulong.Config{Engine: sulong.EngineSafeSulong}},
		{"safe/tier-1", sulong.Config{Engine: sulong.EngineSafeSulong, JIT: true, JITThreshold: 1}},
		{"native", sulong.Config{Engine: sulong.EngineNative}},
		{"asan", sulong.Config{Engine: sulong.EngineASan}},
		{"memcheck", sulong.Config{Engine: sulong.EngineMemcheck}},
	}
}

// runAllEngines runs src under every engine and requires identical stdout and
// exit codes with no bug, fault, or run error — the differential oracle for
// libc allocator semantics.
func runAllEngines(t *testing.T, name, src string, mut func(*sulong.Config)) {
	t.Helper()
	var wantOut string
	var wantCode int
	for i, ec := range faultConfigs() {
		cfg := ec.cfg
		if mut != nil {
			mut(&cfg)
		}
		res, err := sulong.Run(src, cfg)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, ec.label, err)
		}
		if res.Bug != nil || res.Fault != nil {
			t.Fatalf("%s: %s: unexpected bug/fault: %v %v", name, ec.label, res.Bug, res.Fault)
		}
		if i == 0 {
			wantOut, wantCode = res.Stdout, res.ExitCode
			continue
		}
		if res.Stdout != wantOut || res.ExitCode != wantCode {
			t.Errorf("%s: %s diverges: stdout %q exit %d, want %q exit %d",
				name, ec.label, res.Stdout, res.ExitCode, wantOut, wantCode)
		}
	}
}

// TestCallocOverflowReturnsNull is the regression test for the calloc
// count*size multiplication overflow: C11 7.22.3.2 requires NULL, not a
// short allocation that a later memset would overflow. Every engine (both
// managed tiers and both libcs) must agree.
func TestCallocOverflowReturnsNull(t *testing.T) {
	src := `#include <stdlib.h>
#include <stdio.h>
int main(void) {
    /* 2^62 * 8 wraps a 64-bit size_t; a naive n*sz yields 0. */
    char *p = calloc((size_t)1 << 62, 8);
    if (p) { printf("got %p\n", (void*)p); free(p); return 1; }
    printf("overflow -> NULL\n");
    /* A sane calloc must still work afterwards. */
    int *q = calloc(4, sizeof(int));
    if (!q) { printf("small calloc failed\n"); return 2; }
    printf("%d %d\n", q[0], q[3]);
    free(q);
    return 0;
}`
	runAllEngines(t, "calloc-overflow", src, nil)
}

// TestCallocOverflowCountsAsAttempt pins the FailNth coordinate system: a
// calloc denied for overflow still counts as one allocation attempt, so an
// injected schedule lands on the same allocation in every engine.
func TestCallocOverflowCountsAsAttempt(t *testing.T) {
	src := `#include <stdlib.h>
#include <stdio.h>
int main(void) {
    char *a = calloc((size_t)1 << 62, 8); /* attempt 1: overflow -> NULL */
    char *b = malloc(8);                  /* attempt 2: injected -> NULL */
    char *c = malloc(8);                  /* attempt 3: succeeds */
    printf("%d %d %d\n", a == NULL, b == NULL, c == NULL);
    free(c);
    return 0;
}`
	runAllEngines(t, "calloc-overflow-attempt", src, func(cfg *sulong.Config) {
		cfg.FaultPlan = fault.Plan{FailNth: 2}
	})
	// And assert the expected pattern explicitly on the managed engine.
	res, err := sulong.Run(src, sulong.Config{
		Engine: sulong.EngineSafeSulong, FaultPlan: fault.Plan{FailNth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stdout, "1 1 0\n"; got != want {
		t.Fatalf("attempt numbering: stdout %q, want %q", got, want)
	}
	if res.Stats.InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", res.Stats.InjectedFaults)
	}
	if res.Stats.DeniedAllocs != 2 { // overflow denial + injected denial
		t.Fatalf("DeniedAllocs = %d, want 2", res.Stats.DeniedAllocs)
	}
}

// TestMallocZeroReallocZeroSemantics pins the glibc behavior documented in
// DESIGN.md §10: malloc(0) returns a unique non-NULL zero-size object,
// realloc(p, 0) frees p and returns NULL, and realloc(NULL, n) is malloc(n).
// All engines must agree byte-for-byte.
func TestMallocZeroReallocZeroSemantics(t *testing.T) {
	src := `#include <stdlib.h>
#include <stdio.h>
int main(void) {
    char *a = malloc(0);
    char *b = malloc(0);
    printf("m0 nonnull=%d distinct=%d\n", a != NULL && b != NULL, a != b);
    free(a);
    printf("r0 null=%d\n", realloc(b, 0) == NULL); /* frees b */
    char *c = realloc(NULL, 16);                   /* == malloc(16) */
    printf("rN nonnull=%d\n", c != NULL);
    c[15] = 'x';
    char *d = realloc(c, 32); /* grow preserves contents */
    printf("grow nonnull=%d kept=%d\n", d != NULL, d[15] == 'x');
    free(d);
    return 0;
}`
	runAllEngines(t, "malloc0-realloc0", src, nil)
}

// TestReallocFailureKeepsOldBlock pins C11 7.22.3.5: when realloc cannot
// grow a block, it returns NULL and the old block is untouched — under an
// injected failure every engine must keep the original bytes readable.
func TestReallocFailureKeepsOldBlock(t *testing.T) {
	src := `#include <stdlib.h>
#include <stdio.h>
#include <string.h>
int main(void) {
    char *p = malloc(8);           /* attempt 1: succeeds */
    if (!p) return 2;
    strcpy(p, "alive");
    char *q = realloc(p, 1 << 20); /* attempt 2: injected -> NULL */
    printf("failed=%d old=%s\n", q == NULL, p);
    free(p);
    return 0;
}`
	runAllEngines(t, "realloc-failure", src, func(cfg *sulong.Config) {
		cfg.FaultPlan = fault.Plan{FailNth: 2}
	})
	res, err := sulong.Run(src, sulong.Config{
		Engine: sulong.EngineSafeSulong, FaultPlan: fault.Plan{FailNth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stdout, "failed=1 old=alive\n"; got != want {
		t.Fatalf("stdout %q, want %q", got, want)
	}
}

// TestHeapBudgetSoftExhaustion bounds the guest heap and requires malloc to
// fail softly (NULL) once the budget is reached, identically everywhere.
func TestHeapBudgetSoftExhaustion(t *testing.T) {
	// All printing happens after the heap is drained: the managed engine's
	// printf is guest C with its own stack frames, and the budget bounds
	// *total* guest memory, so printing while the heap sits at the cap would
	// (correctly) exhaust the stack.
	src := `#include <stdlib.h>
#include <stdio.h>
int main(void) {
    int ok = 0, failed = 0;
    int i;
    void *blocks[64];
    for (i = 0; i < 64; i++) {
        blocks[i] = malloc(1024);
        if (blocks[i]) ok++; else failed++;
    }
    for (i = 0; i < 64; i++) free(blocks[i]);
    void *again = malloc(1024); /* budget freed up again */
    int reusable = again != NULL;
    free(again);
    printf("ok=%d failed=%d\n", ok, failed);
    printf("after-free nonnull=%d\n", reusable);
    return 0;
}`
	// The managed and native machines charge different stack footprints, so
	// under a tight budget assert the *shape* (some allocations denied, freed
	// bytes reusable) rather than a cross-engine byte-identical count.
	for _, ec := range faultConfigs() {
		cfg := ec.cfg
		cfg.MaxHeapBytes = 1 << 20
		cfg.MaxAllocBytes = 0
		res, err := sulong.Run(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", ec.label, err)
		}
		if res.Bug != nil || res.Fault != nil {
			t.Fatalf("%s: unexpected bug/fault: %v %v", ec.label, res.Bug, res.Fault)
		}
		// 64 KiB requested fits in 1 MiB: everything succeeds.
		if res.Stdout != "ok=64 failed=0\nafter-free nonnull=1\n" {
			t.Fatalf("%s: stdout %q", ec.label, res.Stdout)
		}
	}
	// Now a budget only ~half the demand: some mallocs must fail, the guest
	// handles it, and freed bytes return to the budget.
	res, err := sulong.Run(src, sulong.Config{
		Engine: sulong.EngineSafeSulong, MaxHeapBytes: 40 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	if _, serr := fmt.Sscanf(res.Stdout, "ok=%d failed=%d", &ok, &failed); serr != nil {
		t.Fatalf("unparseable stdout %q", res.Stdout)
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("expected mixed outcomes under 40KiB budget, got ok=%d failed=%d", ok, failed)
	}
	if !strings.Contains(res.Stdout, "after-free nonnull=1") {
		t.Fatalf("freed bytes not returned to budget: %q", res.Stdout)
	}
	if res.Stats.DeniedAllocs == 0 {
		t.Fatal("Stats.DeniedAllocs = 0 under exhausted budget")
	}
}
