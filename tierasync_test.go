package sulong_test

import (
	"fmt"
	"strings"
	"testing"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
)

// runAsyncOSR executes one corpus case under Safe Sulong with the full
// asynchronous tiering pipeline forced: background compilation on, every
// function enqueued at its first call, every loop requesting an OSR entry at
// its first back edge, speculation enabled. Because installs are
// asynchronous, *which* activations run compiled is timing-dependent — the
// point of the parity sweep is that it cannot matter.
func runAsyncOSR(t *testing.T, c corpus.Case, plan fault.Plan) sulong.Result {
	t.Helper()
	cfg := sulong.Config{
		Engine:       sulong.EngineSafeSulong,
		Args:         c.Args,
		Stdin:        strings.NewReader(c.Stdin),
		MaxSteps:     harness.DefaultMaxSteps,
		JIT:          true,
		JITThreshold: 1,
		JITAsync:     true,
		OSRThreshold: 1,
		FaultPlan:    plan,
	}
	res, err := sulong.Run(c.Source, cfg)
	if err != nil {
		t.Fatalf("%s (async+osr): %v", c.Name, err)
	}
	return res
}

func runTier0(t *testing.T, c corpus.Case, plan fault.Plan) sulong.Result {
	t.Helper()
	cfg := sulong.Config{
		Engine:    sulong.EngineSafeSulong,
		Args:      c.Args,
		Stdin:     strings.NewReader(c.Stdin),
		MaxSteps:  harness.DefaultMaxSteps,
		FaultPlan: plan,
	}
	res, err := sulong.Run(c.Source, cfg)
	if err != nil {
		t.Fatalf("%s (tier-0): %v", c.Name, err)
	}
	return res
}

// requireTierCheckParity asserts everything observable matches between a
// tier-0 run and an async+OSR run: exit status, stdout, detection, rendered
// diagnostics, and the Stats.Steps/Stats.Calls ledgers — byte-identical
// even though installs, OSR entries, and deopts happened at arbitrary
// points of the tiered run.
func requireTierCheckParity(t *testing.T, interp, tiered sulong.Result) {
	t.Helper()
	if interp.ExitCode != tiered.ExitCode {
		t.Errorf("exit codes diverge: tier-0 %d, async+OSR %d", interp.ExitCode, tiered.ExitCode)
	}
	if interp.Stdout != tiered.Stdout {
		t.Errorf("stdout diverges:\n--- tier-0 ---\n%s\n--- async+OSR ---\n%s",
			clip(interp.Stdout), clip(tiered.Stdout))
	}
	if (interp.Bug == nil) != (tiered.Bug == nil) {
		t.Fatalf("tiers disagree on detection: tier-0 bug=%v, async+OSR bug=%v",
			interp.Bug, tiered.Bug)
	}
	if len(interp.Diagnostics) != len(tiered.Diagnostics) {
		t.Fatalf("diagnostic counts diverge: tier-0 %d, async+OSR %d",
			len(interp.Diagnostics), len(tiered.Diagnostics))
	}
	for i := range interp.Diagnostics {
		d0, d1 := interp.Diagnostics[i].Render(), tiered.Diagnostics[i].Render()
		if d0 != d1 {
			t.Errorf("diagnostic %d diverges:\n--- tier-0 ---\n%s\n--- async+OSR ---\n%s", i, d0, d1)
		}
	}
	if interp.Stats.Steps != tiered.Stats.Steps {
		t.Errorf("step accounting diverges: tier-0 %d, async+OSR %d (Δ %d)",
			interp.Stats.Steps, tiered.Stats.Steps, tiered.Stats.Steps-interp.Stats.Steps)
	}
	if interp.Stats.Calls != tiered.Stats.Calls {
		t.Errorf("call accounting diverges: tier-0 %d, async+OSR %d",
			interp.Stats.Calls, tiered.Stats.Calls)
	}
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "…"
	}
	return s
}

// TestTierCheckAsyncOSRParityCorpus is `make tiercheck`'s clean-run half:
// the full corpus under tier-0 versus the forced asynchronous pipeline
// (background compile on first call, OSR at the first back edge,
// speculative deopt enabled). Every observable must be byte-identical.
func TestTierCheckAsyncOSRParityCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep skipped in -short mode")
	}
	for _, c := range corpus.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			interp := runTier0(t, c, fault.Plan{})
			tiered := runAsyncOSR(t, c, fault.Plan{})
			requireTierCheckParity(t, interp, tiered)
		})
	}
}

// TestTierCheckAsyncOSRFaultSchedules is the faulting half: the corpus under
// deterministic allocation-failure schedules (the fault sweep's FailNth
// plans), tier-0 versus the forced asynchronous pipeline. An injected
// failure that lands while a loop is running in an OSR entry must unwind
// with the same diagnostics and the same fuel ledger as the interpreter.
func TestTierCheckAsyncOSRFaultSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-schedule sweep skipped in -short mode")
	}
	for nth := int64(1); nth <= 2; nth++ {
		nth := nth
		for _, c := range corpus.All() {
			c := c
			t.Run(fmt.Sprintf("failnth%d/%s", nth, c.Name), func(t *testing.T) {
				t.Parallel()
				plan := fault.Plan{FailNth: nth}
				interp := runTier0(t, c, plan)
				tiered := runAsyncOSR(t, c, plan)
				requireTierCheckParity(t, interp, tiered)
			})
		}
	}
}

// TestTierCheckOSREntersSingleCallLoop pins the scenario call-count tier-up
// can never reach: a loop that is hot inside its *first and only*
// activation. The entry threshold is set unreachably high, so the only way
// compiled code can run is a mid-activation OSR transfer at a loop back
// edge — and the run must still match tier-0 exactly. The hot back edge
// also promotes main for entry compilation, here in synchronous mode.
func TestTierCheckOSREntersSingleCallLoop(t *testing.T) {
	const src = `
#include <stdio.h>
int main(void) {
    long s = 0;
    for (int i = 0; i < 200000; i++) s += i % 7;
    printf("%ld\n", s);
    return 0;
}`
	var compiled []string
	run := func(osr bool) sulong.Result {
		cfg := sulong.Config{
			Engine:   sulong.EngineSafeSulong,
			Stdin:    strings.NewReader(""),
			MaxSteps: harness.DefaultMaxSteps,
		}
		if osr {
			cfg.JIT = true
			cfg.JITThreshold = 1 << 30 // entry compilation unreachable
			cfg.OSRThreshold = 1
			cfg.OnCompile = func(name string) { compiled = append(compiled, name) }
		}
		res, err := sulong.Run(src, cfg)
		if err != nil {
			t.Fatalf("osr=%v: %v", osr, err)
		}
		return res
	}
	interp := run(false)
	osr := run(true)
	requireTierCheckParity(t, interp, osr)
	if osr.JIT == nil || osr.JIT.OSREntries == 0 {
		t.Fatalf("hot single-call loop never entered an OSR compilation: %+v", osr.JIT)
	}
	// main's loop is the first hot back edge; printf's own loops follow.
	if len(compiled) == 0 || compiled[0] != "main" || osr.Stats.Tier1Funcs != int64(len(compiled)) {
		t.Fatalf("hot back edges promoted %v (Tier1Funcs %d), want main first", compiled, osr.Stats.Tier1Funcs)
	}
}

// TestTierCheckDeoptResumesExactInstruction forces a speculation failure:
// the loop's element loads speculate "direct scalar access", but the array
// elements carry pointers, so the guard fails on the first compiled
// iteration and control must transfer back to tier-0 at exactly that
// instruction — observable as a byte-identical run that still records a
// deopt. The one-strike blacklist then recompiles the loop without the
// failed speculation, so OSR re-enters and stays.
func TestTierCheckDeoptResumesExactInstruction(t *testing.T) {
	const src = `
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
}`
	run := func(osr bool) sulong.Result {
		cfg := sulong.Config{
			Engine:   sulong.EngineSafeSulong,
			Stdin:    strings.NewReader(""),
			MaxSteps: harness.DefaultMaxSteps,
		}
		if osr {
			cfg.JIT = true
			cfg.JITThreshold = 1 << 30
			cfg.OSRThreshold = 1
		}
		res, err := sulong.Run(src, cfg)
		if err != nil {
			t.Fatalf("osr=%v: %v", osr, err)
		}
		return res
	}
	interp := run(false)
	osr := run(true)
	requireTierCheckParity(t, interp, osr)
	if osr.JIT == nil {
		t.Fatal("no JIT report on the OSR run")
	}
	if osr.JIT.Deopts == 0 {
		t.Errorf("pointer-carrying cells never failed a speculation guard: %+v", osr.JIT)
	}
	if osr.JIT.OSREntries <= osr.JIT.Deopts {
		t.Errorf("loop did not re-enter OSR after blacklist recompilation: entries=%d deopts=%d",
			osr.JIT.OSREntries, osr.JIT.Deopts)
	}
}
