package jit

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// managedSum is spectralnorm's inner loop with every local in a register:
// sum(n) calls eval_A(i, j) for every i, j below n, so a call of sum(n)
// makes n*n guest calls and executes no alloca and no variadic call.
const managedSum = `module "bench"
func @eval_A fn(i32, i32) f64 regs 12 {
entry:
  %r2 = add i32 %r0, %r1
  %r3 = add i32 %r2, 1
  %r4 = mul i32 %r2, %r3
  %r5 = sdiv i32 %r4, 2
  %r6 = add i32 %r5, %r0
  %r7 = add i32 %r6, 1
  %r8 = sitofp i32 %r7 to f64
  %r9 = fdiv f64 1.0, %r8
  ret f64 %r9
}
func @sum fn(i32) f64 regs 12 {
entry:
  %r1 = fadd f64 0.0, 0.0
  %r2 = add i32 0, 0
  br cond.i
cond.i:
  %r3 = cmp slt i32 %r2, %r0
  condbr %r3, body.i, done
body.i:
  %r4 = add i32 0, 0
  br cond.j
cond.j:
  %r5 = cmp slt i32 %r4, %r0
  condbr %r5, body.j, next.i
body.j:
  %r6 = call f64 &eval_A(i32 %r2, i32 %r4) fixed 2
  %r1 = fadd f64 %r1, %r6
  %r4 = add i32 %r4, 1
  br cond.j
next.i:
  %r2 = add i32 %r2, 1
  br cond.i
done:
  ret f64 %r1
}
`

// managedCallTiers are the configurations a guest call runs in: the tier-0
// interpreter's execCall, and compiled code (entry compile on the first
// call) whose call sites dispatch to compiled callees. eval_A is a leaf, so
// the inlining tier also runs it as an inlined activation.
var managedCallTiers = []struct {
	name string
	cfg  func() core.Config
}{
	{"tier-0", func() core.Config { return core.Config{} }},
	{"compiled", func() core.Config {
		return core.Config{Tier1: &Compiler{DisableMem2Reg: true}, Tier1Threshold: 1}
	}},
	{"inlined", func() core.Config { return core.Config{Tier1: New(), Tier1Threshold: 1} }},
}

// managedCallEngine builds an engine for managedSum and warms it with one
// sum(n) call: compiles install, and the frame pool, the call-edge stack
// and the argument stack grow to the loop's depth.
func managedCallEngine(tb testing.TB, cfg core.Config, n int64) (*core.Engine, int, []core.Value) {
	tb.Helper()
	mod, err := ir.Parse(managedSum)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ir.Verify(mod); err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEngine(mod, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	idx, args := mod.FuncIndex("sum"), []core.Value{core.IntValue(n)}
	if _, err := e.CallIndex(idx, args); err != nil {
		tb.Fatal(err)
	}
	return e, idx, args
}

// TestManagedCallAllocatesNothing pins that a guest call with no allocas
// and no varargs allocates nothing, in every tier: register files come from
// pooled frames, call edges from the engine's edge stack, and argument
// vectors from its argument stack.
func TestManagedCallAllocatesNothing(t *testing.T) {
	const n = 8
	ref, idx, args := managedCallEngine(t, core.Config{}, n)
	want, err := ref.CallIndex(idx, args)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range managedCallTiers {
		e, idx, args := managedCallEngine(t, tc.cfg(), n)
		var got core.Value
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if got, err = e.CallIndex(idx, args); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per sum(%d) (%d guest calls), want 0", tc.name, allocs, n, n*n)
		}
		if got.F != want.F {
			t.Errorf("%s: sum(%d) = %v, tier-0 computes %v", tc.name, n, got.F, want.F)
		}
		if tc.name != "tier-0" && e.Stats().Tier1Calls == 0 {
			t.Errorf("%s: compiled code never ran", tc.name)
		}
	}
}

// BenchmarkManagedCall runs sum(32), 1024 guest calls of eval_A, on a warm
// engine in each tier, and reports allocations per guest call.
func BenchmarkManagedCall(b *testing.B) {
	const n = 32
	for _, tc := range managedCallTiers {
		b.Run(tc.name, func(b *testing.B) {
			e, idx, args := managedCallEngine(b, tc.cfg(), n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CallIndex(idx, args); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			calls := float64(b.N * n * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/call")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/calls, "allocs/call")
		})
	}
}
