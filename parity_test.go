package sulong_test

// The tier-parity table: compiled code must report exactly what the tier-0
// interpreter reports (DESIGN §11–12). Its axes are the programs (the bug
// corpus, the benchmark programs at their small argument, and pinned
// programs below), the tiers of harness.Tiers(), the fault plans (none,
// FailNth 1 and 2, unless a row names its own) and the cache state a run
// meets: cold (a privately compiled module run with NoCache), warm (the
// first run through the module cache, code cache and engine pool) and hit
// (the second). Every cell's harness.Outcome must equal the same program
// and plan at tier-0 on a cold cache in every observable Outcome.Diff
// compares. The top-level tests are the slices the Makefile's gates select
// by name; a cell runs once per test binary, however many slices hold it.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
)

var parityPlans = []fault.Plan{{}, {FailNth: 1}, {FailNth: 2}}

type cacheState int

const (
	cold cacheState = iota
	warm
	hit
)

var cacheNames = [...]string{cold: "cold", warm: "warm", hit: "hit"}

// parityRow is one program of the table.
type parityRow struct {
	name, src, stdin string
	args             []string
	plans            []fault.Plan // nil: parityPlans
	// check returns what is wrong, beyond parity, with one cell's result.
	check func(plan fault.Plan, res sulong.Result) string
	// osrOnly, when set, checks one more clean run with entry compilation
	// unreachable, so compiled code runs only through OSR at a hot back
	// edge; compiled lists the functions compiled, in order. The run must
	// also match the reference.
	osrOnly func(res sulong.Result, compiled []string) string
}

type cellKey struct {
	row   *parityRow
	tier  harness.Tier
	plan  fault.Plan
	cache cacheState
}

type cellRun struct {
	res sulong.Result
	out harness.Outcome
}

// warmRuns maps a warm or hit cellKey to func() cellRun; coldRuns maps a
// row to func() map[cellKey]cellRun. Each runs once.
var warmRuns, coldRuns sync.Map

func (r *parityRow) cell(tier harness.Tier, plan fault.Plan, cache cacheState) cellRun {
	k := cellKey{r, tier, plan, cache}
	if cache == cold {
		runs, _ := coldRuns.LoadOrStore(r, sync.OnceValue(r.runCold))
		return runs.(func() map[cellKey]cellRun)()[k]
	}
	run, _ := warmRuns.LoadOrStore(k, sync.OnceValue(func() cellRun {
		if cache == hit {
			r.cell(tier, plan, warm) // a hit is the second run through the caches
		}
		res, err := sulong.Run(r.src, r.config(tier, plan))
		return cellRun{res, harness.Classify(res, err)}
	}))
	return run.(func() cellRun)()
}

func (r *parityRow) config(tier harness.Tier, plan fault.Plan) sulong.Config {
	cfg := sulong.Config{
		Engine:    sulong.EngineSafeSulong,
		Args:      r.args,
		Stdin:     strings.NewReader(r.stdin),
		MaxSteps:  harness.DefaultMaxSteps,
		FaultPlan: plan,
	}
	tier.Configure(&cfg)
	return cfg
}

func (r *parityRow) planList() []fault.Plan {
	if r.plans == nil {
		return parityPlans
	}
	return r.plans
}

// runCold runs every cold cell of the row on one module compiled with
// NoCache, which is dropped once they are done.
func (r *parityRow) runCold() map[cellKey]cellRun {
	mod, cerr := sulong.CompileFor(r.src, sulong.Config{Engine: sulong.EngineSafeSulong, NoCache: true})
	runs := map[cellKey]cellRun{}
	for _, plan := range r.planList() {
		for _, tier := range harness.Tiers() {
			res, err := sulong.Result{}, cerr
			if cerr == nil {
				cfg := r.config(tier, plan)
				cfg.NoCache = true
				res, err = sulong.RunModule(mod, cfg)
			}
			runs[cellKey{r, tier, plan, cold}] = cellRun{res, harness.Classify(res, err)}
		}
	}
	return runs
}

// sweep compares the row's cells in the given tiers and plans, in every
// cache state, with their reference, and runs the row's own checks.
func (r *parityRow) sweep(t *testing.T, tiers []harness.Tier, plans []fault.Plan) {
	for _, plan := range plans {
		ref := r.cell(harness.Tier0, plan, cold).out
		for _, tier := range tiers {
			for cache, cacheName := range cacheNames {
				got := r.cell(tier, plan, cacheState(cache))
				where := fmt.Sprintf("%s/%v/%s", tier, plan, cacheName)
				switch got.out.Class {
				case "detected", "crashed", "clean":
				default:
					t.Errorf("%s: run ended in %s: %s", where, got.out.Class, got.out.Report)
					continue
				}
				if d := got.out.Diff(ref); d != "" {
					t.Errorf("%s: %s", where, d)
				}
				if r.check == nil {
					continue
				}
				if p := r.check(plan, got.res); p != "" {
					t.Errorf("%s: %s", where, p)
				}
			}
		}
	}
	if r.osrOnly != nil {
		cfg := r.config(harness.Tier0, fault.Plan{})
		cfg.JIT, cfg.JITThreshold, cfg.OSRThreshold, cfg.NoCache = true, 1<<30, 1, true
		var compiled []string
		cfg.OnCompile = func(name string) { compiled = append(compiled, name) }
		res, err := sulong.Run(r.src, cfg)
		if d := harness.Classify(res, err).Diff(r.cell(harness.Tier0, fault.Plan{}, cold).out); d != "" {
			t.Errorf("osr-only: %s", d)
		}
		if p := r.osrOnly(res, compiled); p != "" {
			t.Errorf("osr-only: %s", p)
		}
	}
}

// sweepAll is a pinned row's top-level test: in parallel with the other
// slices, it sweeps the row's whole cross product.
func (r *parityRow) sweepAll(t *testing.T) {
	t.Parallel()
	r.sweep(t, harness.Tiers(), r.planList())
}

// forRows runs f on each row in its own parallel subtest.
func forRows(t *testing.T, rows []*parityRow, f func(t *testing.T, r *parityRow)) {
	if testing.Short() {
		t.Skip("table sweep skipped in -short mode")
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			f(t, r)
		})
	}
}

var corpusRows = sync.OnceValue(func() (rows []*parityRow) {
	for _, c := range corpus.All() {
		rows = append(rows, &parityRow{name: c.Name, src: c.Source, stdin: c.Stdin, args: c.Args, check: reportSites})
	}
	return rows
})

var benchRows = sync.OnceValue(func() (rows []*parityRow) {
	for _, b := range benchprog.All() {
		rows = append(rows, &parityRow{name: b.Name, src: b.Source, args: []string{b.SmallArg}})
	}
	return rows
})

// reportSites checks what every Safe Sulong detection carries: an access
// stack whose leaf is the report site and, for a heap use-after-free or
// double free, the allocation-site and free-site stacks.
func reportSites(_ fault.Plan, res sulong.Result) string {
	bug := res.Bug
	if bug == nil {
		return ""
	}
	top, ok := bug.AccessStack.Top()
	switch {
	case !ok:
		return fmt.Sprintf("detection has an empty access stack: %v", bug)
	case bug.Func != "" && top.Func != bug.Func:
		return fmt.Sprintf("stack leaf %q != report site %q", top.Func, bug.Func)
	case bug.Mem == core.HeapMem && (bug.Kind == core.UseAfterFree || bug.Kind == core.DoubleFree) &&
		(bug.AllocStack.IsEmpty() || bug.FreeStack.IsEmpty()):
		return fmt.Sprintf("%s report lacks its allocation-site or free-site stack", bug.Kind)
	}
	return ""
}

// reports checks that a pinned program's clean run detects exactly kind,
// with its report sites.
func reports(kind core.BugKind) func(fault.Plan, sulong.Result) string {
	return func(plan fault.Plan, res sulong.Result) string {
		switch {
		case plan.Enabled():
			return ""
		case res.Bug == nil:
			return "no bug detected"
		case res.Bug.Kind != kind:
			return fmt.Sprintf("detected %v, want %v", res.Bug.Kind, kind)
		}
		return reportSites(plan, res)
	}
}

// TestWarmColdCacheParity is the corpus's whole cross product.
func TestWarmColdCacheParity(t *testing.T) {
	t.Parallel()
	names := [...]string{harness.Tier0: "tier0", harness.Tier1: "jit", harness.TierAsyncOSR: "osr"}
	for _, tier := range harness.Tiers() {
		t.Run(names[tier], func(t *testing.T) { corpusSlice(t, tier, parityPlans) })
	}
}

func corpusSlice(t *testing.T, tier harness.Tier, plans []fault.Plan) {
	forRows(t, corpusRows(), func(t *testing.T, r *parityRow) {
		r.sweep(t, []harness.Tier{tier}, plans)
	})
}

// TestTierParityStepsAndOutput and TestTierParityDiagnostics are the
// corpus in tier-1, clean and under FailNth 1 and 2.
func TestTierParityStepsAndOutput(t *testing.T) {
	t.Parallel()
	corpusSlice(t, harness.Tier1, parityPlans[:1])
}

func TestTierParityDiagnostics(t *testing.T) {
	t.Parallel()
	corpusSlice(t, harness.Tier1, parityPlans[1:])
}

// TestTierCheckAsyncOSRParityCorpus and TestTierCheckAsyncOSRFaultSchedules
// are the corpus in async+OSR, clean and under FailNth 1 and 2. Installs
// are asynchronous, so which activations run compiled is timing-dependent;
// the point is that it cannot matter.
func TestTierCheckAsyncOSRParityCorpus(t *testing.T) {
	t.Parallel()
	corpusSlice(t, harness.TierAsyncOSR, parityPlans[:1])
}

func TestTierCheckAsyncOSRFaultSchedules(t *testing.T) {
	t.Parallel()
	for _, plan := range parityPlans[1:] {
		t.Run(fmt.Sprintf("failnth%d", plan.FailNth), func(t *testing.T) {
			corpusSlice(t, harness.TierAsyncOSR, []fault.Plan{plan})
		})
	}
}

// TestTierParityBenchmarks is the benchmark programs' whole cross product:
// the workloads the tier-2 optimizer was tuned on.
func TestTierParityBenchmarks(t *testing.T) {
	t.Parallel()
	forRows(t, benchRows(), func(t *testing.T, r *parityRow) { r.sweep(t, harness.Tiers(), r.planList()) })
}

// singleCallLoop is hot inside its first and only activation, where
// entry tier-up never reaches (its back edges count toward main's entry
// threshold, but that is tested only at a next call): only OSR runs it
// compiled, and the hot back edge promotes main first.
var singleCallLoop = &parityRow{name: "single-call-loop", src: `
#include <stdio.h>
int main(void) {
    long s = 0;
    for (int i = 0; i < 200000; i++) s += i % 7;
    printf("%ld\n", s);
    return 0;
}`, osrOnly: func(res sulong.Result, compiled []string) string {
	if res.JIT == nil || res.JIT.OSREntries == 0 {
		return fmt.Sprintf("hot single-call loop never entered an OSR compilation: %+v", res.JIT)
	}
	// main's loop is the first hot back edge; printf's own loops follow.
	if len(compiled) == 0 || compiled[0] != "main" || res.Stats.Tier1Funcs != int64(len(compiled)) {
		return fmt.Sprintf("hot back edges promoted %v (Tier1Funcs %d), want main first", compiled, res.Stats.Tier1Funcs)
	}
	return ""
}}

func TestTierCheckOSREntersSingleCallLoop(t *testing.T) { singleCallLoop.sweepAll(t) }

// pointerCellLoop's element loads hit cells that carry pointers, so the
// direct scalar fast path refuses them and the checked generic access runs
// inside OSR code. The activation that enters OSR finishes there: compiled
// code never transfers back to tier-0.
var pointerCellLoop = &parityRow{name: "pointer-cell-loop", src: `
#include <stdio.h>
struct cell { long v; const char *name; };
int main(void) {
    struct cell cells[64];
    for (int i = 0; i < 64; i++) { cells[i].v = i; cells[i].name = "x"; }
    long s = 0;
    for (int r = 0; r < 300; r++)
        for (int i = 0; i < 64; i++)
            s += cells[i].v + (long)(cells[i].name[0] == 'x');
    printf("%ld\n", s);
    return 0;
}`, osrOnly: func(res sulong.Result, _ []string) string {
	switch {
	case res.JIT == nil || res.JIT.OSREntries == 0:
		return fmt.Sprintf("pointer-cell loop never entered an OSR compilation: %+v", res.JIT)
	case res.Stats.Deopts != 0:
		return fmt.Sprintf("OSR code transferred back to tier-0 %d times", res.Stats.Deopts)
	}
	return ""
}}

func TestTierCheckOSRRunsPointerCells(t *testing.T) { pointerCellLoop.sweepAll(t) }

// heapSchedule is heap traffic under six fault plans, seeded and
// byte-budgeted ones included.
var heapSchedule = &parityRow{name: "heap-schedule", src: `#include <stdlib.h>
#include <stdio.h>
int main(void) {
    int i, live = 0;
    for (i = 0; i < 20; i++) {
        char *p = malloc(16 + i);
        if (!p) { printf("alloc %d failed\n", i); continue; }
        live++;
        p[0] = (char)i;
        if (i % 3 == 0) { free(p); live--; }
    }
    printf("live=%d\n", live);
    return live;
}`, plans: []fault.Plan{
	{}, {FailNth: 1}, {FailNth: 7}, {FailAfterBytes: 128},
	{FailProb: 0.25, Seed: 42}, {FailProb: 0.5, Seed: 7, FailNth: 3},
}}

func TestFaultScheduleTierParity(t *testing.T) { heapSchedule.sweepAll(t) }

// nullPlusOffset does pointer arithmetic on a failed malloc: the report
// keeps the effective offset whether the pointer spills to memory (tier-0)
// or stays in a register (tier-1 after scalar promotion).
var nullPlusOffset = &parityRow{name: "null-plus-offset", src: `#include <stdlib.h>
int main(void) {
    char *p = malloc(16); /* injected -> NULL */
    char *q = p + 4;
    q[-5] = 'x';          /* effective offset -1 from NULL */
    return 0;
}`, check: func(plan fault.Plan, res sulong.Result) string {
	if plan.FailNth == 1 && (res.Bug == nil || !strings.Contains(res.Bug.Error(), "offset -1")) {
		return fmt.Sprintf("report lost the pointer offset: %v", res.Bug)
	}
	return ""
}}

func TestNullPlusOffsetRoundtrip(t *testing.T) { nullPlusOffset.sweepAll(t) }

// hoistedCheck: tier-2 may hoist the loop's invariant check operands and
// fuse gep+access pairs, but the write at i == 10 faults on exactly that
// iteration. The first call warms fill into tier-2; the second faults in it.
var hoistedCheck = &parityRow{name: "hoisted-check", check: reports(core.OutOfBounds), src: `
int buf[10];
int fill(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        buf[i] = i;        /* faults when i == 10 */
        s += buf[i];
    }
    return s;
}
int main(void) {
    int s = fill(10);      /* clean: warm-up + compile */
    s += fill(13);         /* out of bounds at iteration 10 */
    return s;
}`}

func TestHoistedCheckFaultsAtExactIteration(t *testing.T) { hoistedCheck.sweepAll(t) }

// coalescedRun: sum's four constant-index loads coalesce into one range
// check over [0,32). On the 16-byte object that check fails, compiled code
// falls back to per-access checks, and the fault blames exactly q[2], with
// q[0] and q[1] charged and q[2] and q[3] not.
var coalescedRun = &parityRow{name: "coalesced-run", check: reports(core.OutOfBounds), src: `
#include <stdlib.h>
long sum(long *q) { return q[0] + q[1] + q[2] + q[3]; }
int main(void) {
    long *q = malloc(4 * sizeof(long));
    q[0] = 1; q[1] = 2; q[2] = 3; q[3] = 4;
    long s = sum(q);                                  /* clean: warm-up + compile */
    long *shortq = malloc(2 * sizeof(long));
    shortq[0] = 5; shortq[1] = 6;
    s += sum(shortq);                                 /* q[2] reads past the object */
    return (int)s;
}`}

func TestCoalescedRunFaultsAtExactField(t *testing.T) { coalescedRun.sweepAll(t) }

// uafUnderCoalescing: a freed object accessed inside a coalesced run is
// still a use-after-free, not a range failure, with both its stacks.
var uafUnderCoalescing = &parityRow{name: "uaf-under-coalescing", check: reports(core.UseAfterFree), src: `
#include <stdlib.h>
struct pair { long x; long y; };
long both(struct pair *p) { return p->x + p->y; }
int main(void) {
    struct pair *p = malloc(sizeof(struct pair));
    p->x = 1; p->y = 2;
    long s = both(p);      /* clean: warm-up + compile */
    free(p);
    s += both(p);          /* use after free inside the coalesced run */
    return (int)s;
}`}

func TestUseAfterFreeUnderCoalescing(t *testing.T) { uafUnderCoalescing.sweepAll(t) }
