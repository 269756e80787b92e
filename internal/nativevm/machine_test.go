package nativevm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/nativemem"
)

func build(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t *testing.T, src string, cfg Config) (int, error, *Machine) {
	t.Helper()
	m, err := New(build(t, src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, rerr := m.Run()
	return code, rerr, m
}

func TestMachineArithmetic(t *testing.T) {
	code, err, _ := run(t, `module "t"
func @main fn() i32 regs 3 {
entry:
  %r0 = mul i32 6, 7
  ret i32 %r0
}
`, Config{})
	if err != nil || code != 42 {
		t.Errorf("got (%d, %v)", code, err)
	}
}

func TestMachineStackAllocaAdjacency(t *testing.T) {
	// Two allocas are adjacent on the simulated stack: an overflow of the
	// second lands in the first, silently.
	code, err, _ := run(t, `module "t"
func @main fn() i32 regs 8 {
entry:
  %r0 = alloca [4 x i8] name "a"
  %r1 = alloca [4 x i8] name "b"
  store i8 7, %r0
  %r2 = gep %r1, 1, 16
  store i8 99, %r2
  %r3 = load i8, %r0
  %r4 = sext i8 %r3 to i32
  ret i32 %r4
}
`, Config{})
	if err != nil {
		t.Fatalf("intra-stack overflow must be silent: %v", err)
	}
	_ = code // the write may or may not have hit 'a' depending on padding — silence is the point
}

func TestMachineNullFault(t *testing.T) {
	_, err, _ := run(t, `module "t"
func @main fn() i32 regs 2 {
entry:
  %r0 = load i32, null
  ret i32 %r0
}
`, Config{})
	f, ok := err.(*nativemem.Fault)
	if !ok || f.Addr >= nativemem.PageSize {
		t.Errorf("NULL load should fault on the zero page: %v", err)
	}
}

func TestMachineGlobalLayoutAndInit(t *testing.T) {
	code, err, m := run(t, `module "t"
global @a [2 x i32] = array [int 5, int 6]
global @s const [3 x i8] = bytes "ok\x00"
func @main fn() i32 regs 3 {
entry:
  %r0 = gep @a, 4, 1
  %r1 = load i32, %r0
  ret i32 %r1
}
`, Config{})
	if err != nil || code != 6 {
		t.Fatalf("got (%d, %v)", code, err)
	}
	s, f := m.Mem.CString(m.GlobalAddr("s"), 10)
	if f != nil || s != "ok" {
		t.Errorf("global string = %q", s)
	}
	if m.GlobalAddr("a") == 0 {
		t.Error("global not laid out")
	}
}

func TestMachineFunctionPointers(t *testing.T) {
	code, err, _ := run(t, `module "t"
func @seven fn() i32 regs 1 {
entry:
  ret i32 7
}
func @main fn() i32 regs 4 {
entry:
  %r0 = alloca ptr name "fp"
  store ptr &seven, %r0
  %r1 = load ptr, %r0
  %r2 = call i32 %r1() fixed 0
  ret i32 %r2
}
`, Config{})
	if err != nil || code != 7 {
		t.Errorf("got (%d, %v)", code, err)
	}
}

func TestMachineBadFunctionPointerFaults(t *testing.T) {
	_, err, _ := run(t, `module "t"
func @main fn() i32 regs 2 {
entry:
  %r0 = inttoptr i64 12345 to ptr
  %r1 = call i32 %r0() fixed 0
  ret i32 %r1
}
`, Config{})
	if err == nil {
		t.Error("jump to a non-text address must fault")
	}
}

func TestMachineArgvBlockLayout(t *testing.T) {
	cfg := Config{Args: []string{"one"}, Env: []string{"SECRET=x"}}
	code, err, m := run(t, `module "t"
func @main fn(i32, ptr) i32 regs 4 {
entry:
  %r2 = gep %r1, 8, 1
  %r3 = load ptr, %r2
  %r2 = ptrtoint ptr %r3 to i64
  %r2 = trunc i64 %r2 to i32
  ret i32 %r2
}
`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = code
	// argv[argc] is NULL, and beyond it lies envp — the paper's leak.
	argvAddr, envpAddr, argc := m.buildArgvBlock()
	if argc != 2 {
		t.Fatalf("argc = %d", argc)
	}
	nullSlot, _ := m.Mem.Load(argvAddr+16, 8)
	if nullSlot != 0 {
		t.Error("argv[argc] must be NULL")
	}
	envp0, _ := m.Mem.Load(envpAddr, 8)
	if envp0 == 0 {
		t.Fatal("envp[0] missing")
	}
	s, _ := m.Mem.CString(envp0, 64)
	if s != "SECRET=x" {
		t.Errorf("env string = %q", s)
	}
	// Reading argv past its end (slot 3 = envp[0]) succeeds silently.
	leak, f := m.Mem.Load(argvAddr+24, 8)
	if f != nil {
		t.Fatal("argv overread must not fault")
	}
	leaked, _ := m.Mem.CString(leak, 64)
	if leaked != "SECRET=x" {
		t.Errorf("argv[3] should leak the environment, got %q", leaked)
	}
}

func TestMachineHeapReuse(t *testing.T) {
	alloc := NewFreeListAlloc(nativemem.New())
	a := alloc.Malloc(32)
	if err := alloc.Free(a); err != nil {
		t.Fatal(err)
	}
	b := alloc.Malloc(32)
	if a != b {
		t.Errorf("freed block should be reused immediately (LIFO): %#x vs %#x", a, b)
	}
	if _, ok := alloc.SizeOf(b); !ok {
		t.Error("live block should have a size")
	}
	if err := alloc.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(b); err == nil {
		t.Error("double free should abort (glibc consistency check)")
	}
	if err := alloc.Free(0xdead0000); err == nil {
		t.Error("invalid free should abort")
	}
}

func TestMachineDivZeroTraps(t *testing.T) {
	code, err, _ := run(t, `module "t"
func @main fn() i32 regs 3 {
entry:
  %r0 = add i32 0, 0
  %r1 = sdiv i32 5, %r0
  ret i32 %r1
}
`, Config{})
	if err != nil || code != 136 {
		t.Errorf("division by zero should exit 136 (128+SIGFPE), got (%d, %v)", code, err)
	}
}

func TestMachineStepLimit(t *testing.T) {
	_, err, _ := run(t, `module "t"
func @main fn() i32 regs 1 {
entry:
  br entry
}
`, Config{MaxSteps: 500})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("want step-limit error, got %v", err)
	}
}

func TestFuncAddrRoundTrip(t *testing.T) {
	for _, idx := range []int{0, 1, 57, 4095} {
		if FuncIndexOf(FuncAddr(idx)) != idx {
			t.Errorf("round trip failed for %d", idx)
		}
	}
	if FuncIndexOf(0x1234) != -1 {
		t.Error("non-text address should map to -1")
	}
	if FuncIndexOf(FuncBase+7) != -1 {
		t.Error("misaligned text address should map to -1")
	}
}

func TestMachineVariadicAreaReadsPastEnd(t *testing.T) {
	// A variadic callee reading more slots than were passed reads stack
	// garbage, silently — the native varargs blind spot.
	code, err, _ := run(t, `module "t"
func @take fn(i32, ...) i32 regs 2 {
entry:
  ret i32 %r0
}
func @main fn() i32 regs 2 {
entry:
  %r0 = call i32 &take(i32 1, i32 2, i32 3) fixed 1
  ret i32 %r0
}
`, Config{})
	if err != nil || code != 1 {
		t.Errorf("got (%d, %v)", code, err)
	}
}

// TestResetMatchesNew pins Machine.Reset against New: a run that mutated a
// global, the heap and libc's private state, then a Reset with other
// arguments, gives the run a fresh machine gives, and keeps the page
// buffers.
func TestResetMatchesNew(t *testing.T) {
	mod := build(t, `module "t"
global @g i64 = int 7
func @main fn() i32 regs 3 {
entry:
  %r0 = load i64, @g
  %r1 = add i64 %r0, 1
  store i64 %r1, @g
  %r2 = trunc i64 %r1 to i32
  ret i32 %r2
}
`)
	m, err := New(mod, Config{Args: []string{"a", "b"}, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if code, err := m.Run(); err != nil || code != 8 {
		t.Fatalf("run 1: (%d, %v), want 8", code, err)
	}
	heap := m.Alloc.Malloc(64)
	if m.Mem.Store(heap, 8, 1) != nil {
		t.Fatal("heap store faulted")
	}
	m.StrtokSave, m.RandState, m.Ungot = heap, 99, 'x'
	fmt.Fprint(m.Stdout, "dirty")
	kept := m.Mem.BufferBytes()

	if err := m.Reset(Config{}); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.BufferBytes(); got != kept {
		t.Errorf("Reset kept %d bytes of pages, want %d", got, kept)
	}
	if m.Mem.Mapped(heap, 1) {
		t.Error("a heap block from before Reset is still mapped")
	}
	if m.StrtokSave != 0 || m.RandState != 1 || m.Ungot != -2 {
		t.Errorf("libc state after Reset: strtok %#x, rand %d, ungot %d", m.StrtokSave, m.RandState, m.Ungot)
	}
	code, err := m.Run()
	fresh, ferr := New(mod, Config{})
	if ferr != nil {
		t.Fatal(ferr)
	}
	wantCode, wantErr := fresh.Run()
	if code != wantCode || err != wantErr || m.Steps() != fresh.Steps() || m.Output() != fresh.Output() {
		t.Errorf("reset run (%d, %v, %d steps, %q) != fresh run (%d, %v, %d steps, %q)",
			code, err, m.Steps(), m.Output(), wantCode, wantErr, fresh.Steps(), fresh.Output())
	}
	if got := m.Alloc.Malloc(64); got != heap {
		t.Errorf("first malloc after Reset at %#x, want %#x", got, heap)
	}
}
