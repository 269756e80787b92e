package jit

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// loopSrc runs a counted loop: entry, cond, body, done — the same block
// shapes tier 0 and tier 1 execute, so their step accounting can be
// compared exactly.
const loopSrc = `module "t"
func @acc fn(i64) i64 regs 8 {
entry:
  %r1 = alloca i64 name "sum"
  store i64 0, %r1
  br cond
cond:
  %r2 = cmp sgt i64 %r0, 0
  condbr %r2, body, done
body:
  %r3 = load i64, %r1
  %r4 = add i64 %r3, %r0
  store i64 %r4, %r1
  %r0 = sub i64 %r0, 1
  br cond
done:
  %r5 = load i64, %r1
  ret i64 %r5
}
`

// TestTier1StepAccountingMatchesTier0: with scalar promotion disabled the
// compiled blocks carry the interpreter's exact instruction counts, so a
// run whose calls all execute as tier-1 closures (threshold 1 compiles on
// the first call) must report the same Stats.Steps as a pure tier-0 run.
// This is the satellite guarantee that MaxSteps and Stats.Steps mean the
// same thing in every tier.
func TestTier1StepAccountingMatchesTier0(t *testing.T) {
	run := func(withJIT bool) int64 {
		m, err := ir.Parse(loopSrc)
		if err != nil {
			t.Fatal(err)
		}
		var cfg core.Config
		if withJIT {
			comp := New()
			comp.DisableMem2Reg = true // keep block shapes identical to tier 0
			cfg.Tier1 = comp
			cfg.Tier1Threshold = 1
		}
		e, err := core.NewEngine(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			v, err := e.CallByName("acc", []core.Value{core.IntValue(100)})
			if err != nil || v.I != 5050 {
				t.Fatalf("withJIT=%v call %d: got (%d, %v), want 5050", withJIT, i, v.I, err)
			}
		}
		return e.Stats().Steps
	}
	tier0, mixed := run(false), run(true)
	if tier0 != mixed {
		t.Fatalf("Stats.Steps diverge: tier-0 only %d, tier-0+tier-1 %d", tier0, mixed)
	}
	if tier0 == 0 {
		t.Fatal("no steps recorded at all")
	}
}

// TestTier1HonorsMaxSteps: a loop running entirely as compiled closures
// exhausts the engine's budget — the regression that motivated per-block
// fuel charging (compiled code used to execute for free).
func TestTier1HonorsMaxSteps(t *testing.T) {
	m, err := ir.Parse(`module "t"
func @spin fn() i64 regs 4 {
entry:
  br loop
loop:
  %r0 = add i64 %r0, 1
  br loop
}
`)
	if err != nil {
		t.Fatal(err)
	}
	comp := New()
	e, err := core.NewEngine(m, core.Config{Tier1: comp, Tier1Threshold: 1, MaxSteps: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.CallByName("spin", nil)
	if n := comp.Snapshot().Compiled; n != 1 {
		t.Fatalf("spin was not tier-1 compiled (Compiled=%d)", n)
	}
	var limit *core.LimitError
	if !errors.As(err, &limit) {
		t.Fatalf("got err=%v, want *core.LimitError", err)
	}
}

// TestTier1PollsGovernor: compiled code observes a stopped governor at the
// next block boundary.
func TestTier1PollsGovernor(t *testing.T) {
	m, err := ir.Parse(`module "t"
func @spin fn() i64 regs 4 {
entry:
  br loop
loop:
  %r0 = add i64 %r0, 1
  br loop
}
`)
	if err != nil {
		t.Fatal(err)
	}
	gov := &core.Governor{}
	gov.Stop("test stop")
	comp := New()
	// Threshold 1: the first call is compiled before it executes, so the
	// loop runs entirely as tier-1 closures.
	e, err := core.NewEngine(m, core.Config{Tier1: comp, Tier1Threshold: 1, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.CallByName("spin", nil)
	if n := comp.Snapshot().Compiled; n != 1 {
		t.Fatalf("spin was not tier-1 compiled (Compiled=%d)", n)
	}
	var deadline *core.DeadlineError
	if !errors.As(err, &deadline) {
		t.Fatalf("got err=%v, want *core.DeadlineError", err)
	}
}
