package jit

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

func buildEngine(t *testing.T, src string, tier1 bool) *core.Engine {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{}
	if tier1 {
		cfg.Tier1 = New()
		cfg.Tier1Threshold = 1
	}
	e, err := core.NewEngine(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// equivalence checks the interpreter and the compiled code agree on a
// function across a range of inputs.
func equivalence(t *testing.T, src, fn string, inputs []int64) {
	t.Helper()
	interp := buildEngine(t, src, false)
	jitted := buildEngine(t, src, true)
	for _, in := range inputs {
		a, errA := interp.CallByName(fn, []core.Value{core.IntValue(in)})
		// Call twice so the second run uses compiled code.
		jitted.CallByName(fn, []core.Value{core.IntValue(in)})
		b, errB := jitted.CallByName(fn, []core.Value{core.IntValue(in)})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s(%d): error divergence: %v vs %v", fn, in, errA, errB)
		}
		if errA == nil && a.I != b.I {
			t.Errorf("%s(%d): interp %d, jit %d", fn, in, a.I, b.I)
		}
	}
	if jitted.Stats().Tier1Calls == 0 {
		t.Fatal("compiled code never executed")
	}
}

func TestCompiledArithmeticEquivalence(t *testing.T) {
	equivalence(t, `module "t"
func @f fn(i64) i64 regs 8 {
entry:
  %r1 = mul i64 %r0, 3
  %r2 = add i64 %r1, 7
  %r3 = ashr i64 %r2, 1
  %r4 = xor i64 %r3, 255
  %r5 = srem i64 %r4, 1000
  ret i64 %r5
}
`, "f", []int64{0, 1, -1, 42, -100000, 1 << 40})
}

func TestCompiledControlFlowEquivalence(t *testing.T) {
	equivalence(t, `module "t"
func @collatz fn(i64) i64 regs 8 {
entry:
  %r1 = add i64 0, 0
  br cond
cond:
  %r2 = cmp sle i64 %r0, 1
  condbr %r2, done, body
body:
  %r3 = and i64 %r0, 1
  %r4 = cmp eq i64 %r3, 0
  condbr %r4, even, odd
even:
  %r0 = sdiv i64 %r0, 2
  br next
odd:
  %r0 = mul i64 %r0, 3
  %r0 = add i64 %r0, 1
  br next
next:
  %r1 = add i64 %r1, 1
  br cond
done:
  ret i64 %r1
}
`, "collatz", []int64{1, 2, 7, 27, 97})
}

func TestCompiledMemoryChecksPreserved(t *testing.T) {
	src := `module "t"
func @peek fn(i64) i64 regs 6 {
entry:
  %r1 = alloca [8 x i64] name "buf"
  %r2 = gep %r1, 8, %r0
  store i64 5, %r2
  %r3 = load i64, %r2
  ret i64 %r3
}
`
	e := buildEngine(t, src, true)
	// Warm and compile on valid input.
	for i := 0; i < 3; i++ {
		if _, err := e.CallByName("peek", []core.Value{core.IntValue(2)}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Tier1Funcs == 0 {
		t.Fatal("function was not compiled")
	}
	// Out-of-bounds input must still be detected by compiled code.
	_, err := e.CallByName("peek", []core.Value{core.IntValue(8)})
	be, ok := err.(*core.BugError)
	if !ok || be.Kind != core.OutOfBounds {
		t.Fatalf("compiled code lost the bounds check: %v", err)
	}
	// And underflow.
	_, err = e.CallByName("peek", []core.Value{core.IntValue(-1)})
	if be, ok := err.(*core.BugError); !ok || !be.Underflow() {
		t.Fatalf("underflow lost: %v", err)
	}
}

func TestCompiledDivZeroPreserved(t *testing.T) {
	src := `module "t"
func @div fn(i64) i64 regs 3 {
entry:
  %r1 = sdiv i64 100, %r0
  ret i64 %r1
}
`
	e := buildEngine(t, src, true)
	e.CallByName("div", []core.Value{core.IntValue(5)})
	e.CallByName("div", []core.Value{core.IntValue(5)})
	_, err := e.CallByName("div", []core.Value{core.IntValue(0)})
	if be, ok := err.(*core.BugError); !ok || be.Kind != core.DivideByZero {
		t.Fatalf("compiled division lost its zero check: %v", err)
	}
}

func TestCompiledSwitchAndSelect(t *testing.T) {
	equivalence(t, `module "t"
func @pick fn(i64) i64 regs 6 {
entry:
  %r1 = cmp sgt i64 %r0, 10
  %r2 = select %r1, i64 111, 222
  switch i64 %r0, default other [1: one, 2: two]
one:
  ret i64 %r2
two:
  %r3 = add i64 %r2, 1
  ret i64 %r3
other:
  %r4 = add i64 %r2, 2
  ret i64 %r4
}
`, "pick", []int64{1, 2, 3, 11, 100})
}

func TestMem2RegDisabledStillCorrect(t *testing.T) {
	src := `module "t"
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
	for _, disable := range []bool{false, true} {
		m, _ := ir.Parse(src)
		comp := New()
		comp.DisableMem2Reg = disable
		e, err := core.NewEngine(m, core.Config{Tier1: comp, Tier1Threshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.CallByName("acc", []core.Value{core.IntValue(10)})
		v, err := e.CallByName("acc", []core.Value{core.IntValue(10)})
		if err != nil || v.I != 55 {
			t.Errorf("disable=%v: got (%d, %v), want 55", disable, v.I, err)
		}
	}
}

func TestCompilerStats(t *testing.T) {
	comp := New()
	m, _ := ir.Parse(`module "t"
func @f fn() i64 regs 2 {
entry:
  %r0 = add i64 1, 2
  ret i64 %r0
}
`)
	e, _ := core.NewEngine(m, core.Config{Tier1: comp, Tier1Threshold: 1})
	e.CallByName("f", nil)
	e.CallByName("f", nil)
	if s := comp.Snapshot(); s.Compiled != 1 || s.InstrsTotal == 0 {
		t.Errorf("stats: %+v", s)
	}
}

// TestBailDoesNotInflateStats pins the compile-stats contract: a bail-out —
// even one that happens after earlier blocks lowered successfully — must
// leave Compiled and InstrsTotal untouched, count Bailed, and record a
// reason. Before this was enforced, a bail mid-function leaked the already-
// lowered instructions into InstrsTotal, skewing the per-function average.
func TestBailDoesNotInflateStats(t *testing.T) {
	m, err := ir.Parse(`module "t"
func @bad fn(i64) i64 regs 4 {
entry:
  %r1 = add i64 %r0, 1
  br body
body:
  %r2 = mul i64 %r1, 2
  ret i64 %r2
}
func @good fn() i64 regs 2 {
entry:
  %r0 = add i64 40, 2
  ret i64 %r0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt an operand in @bad's SECOND block: the entry block lowers
	// fine, so a buggy accounting path would have already added its
	// instructions before the failure.
	m.Funcs[0].Blocks[1].Instrs[0].A.Kind = ir.OperandKind(99)
	e, err := core.NewEngine(m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp := New()
	if got := comp.Compile(e, 0); got != nil {
		t.Fatal("corrupted function compiled")
	}
	s := comp.Snapshot()
	if s.Bailed != 1 || s.Compiled != 0 || s.InstrsTotal != 0 {
		t.Errorf("after bail: Bailed=%d Compiled=%d InstrsTotal=%d, want 1/0/0",
			s.Bailed, s.Compiled, s.InstrsTotal)
	}
	if len(s.BailReasons) != 1 || !strings.HasPrefix(s.BailReasons[0], "bad: ") {
		t.Errorf("bail reason not recorded: %q", s.BailReasons)
	}

	// A healthy function still compiles on the same compiler, and only its
	// instructions are counted.
	if got := comp.Compile(e, 1); got == nil {
		t.Fatal("good function failed to compile")
	}
	s = comp.Snapshot()
	if s.Compiled != 1 || s.InstrsTotal == 0 {
		t.Errorf("after success: Compiled=%d InstrsTotal=%d", s.Compiled, s.InstrsTotal)
	}
	instrs := s.InstrsTotal

	// A second bail still moves only the bail counters.
	comp.Compile(e, 0)
	s = comp.Snapshot()
	if s.Bailed != 2 || s.Compiled != 1 || s.InstrsTotal != instrs {
		t.Errorf("after second bail: Bailed=%d Compiled=%d InstrsTotal=%d, want 2/1/%d",
			s.Bailed, s.Compiled, s.InstrsTotal, instrs)
	}
}
