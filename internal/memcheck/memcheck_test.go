package memcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/nativevm"
)

// newTool attaches a fresh tool to a machine over a one-function module, the
// way the facade does, and returns it with the machine's heap.
func newTool(t *testing.T) (*Tool, nativevm.Allocator) {
	tool, m := attach(t)
	return tool, m.Alloc
}

func attach(t *testing.T) (*Tool, *nativevm.Machine) {
	t.Helper()
	mod, err := ir.Parse(`module "t"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	tool := New()
	m, err := nativevm.New(mod, nativevm.Config{Tool: tool})
	if err != nil {
		t.Fatal(err)
	}
	return tool, m
}

// TestAttachInstallsPerInstr pins the hook Attach installs: every
// interpreted instruction pays memcheck's register-shadow work once.
func TestAttachInstallsPerInstr(t *testing.T) {
	tool, m := attach(t)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Steps() == 0 || int64(tool.shadowIdx) != m.Steps() {
		t.Errorf("PerInstr ran %d times over %d steps", tool.shadowIdx, m.Steps())
	}
}

func TestHeapBounds(t *testing.T) {
	tool, alloc := newTool(t)
	addr := alloc.Malloc(24)
	if be := tool.Load(addr, 8); be != nil {
		t.Errorf("in-bounds flagged: %v", be)
	}
	if be := tool.Load(addr+23, 1); be != nil {
		t.Errorf("last byte flagged: %v", be)
	}
	if be := tool.Load(addr+24, 1); be == nil || be.Kind != core.OutOfBounds {
		t.Errorf("heap overflow: %v", be)
	}
	if be := tool.Store(addr-1, 1); be == nil {
		t.Error("heap underflow (redzone) missed")
	}
}

func TestUseAfterFreeUntilReuse(t *testing.T) {
	tool, alloc := newTool(t)
	addr := alloc.Malloc(32)
	if err := alloc.Free(addr); err != nil {
		t.Fatal(err)
	}
	if be := tool.Load(addr, 4); be == nil || be.Kind != core.UseAfterFree {
		t.Errorf("freed read: %v", be)
	}
	// Re-allocation of the same block makes the stale pointer "valid".
	again := alloc.Malloc(32)
	if again != addr {
		t.Skipf("allocator did not reuse the block (%#x vs %#x)", again, addr)
	}
	if be := tool.Load(addr, 4); be != nil {
		t.Errorf("after reuse, the stale pointer goes dark (P3): %v", be)
	}
}

func TestDoubleAndInvalidFree(t *testing.T) {
	tool, alloc := newTool(t)
	addr := alloc.Malloc(16)
	alloc.Free(addr)
	if err := alloc.Free(addr); err == nil {
		t.Error("double free missed")
	} else if be, ok := err.(*core.BugError); !ok || be.Kind != core.DoubleFree {
		t.Errorf("double free kind: %v", err)
	}
	if err := alloc.Free(0xabcdef); err == nil {
		t.Error("invalid free missed")
	}
	_ = tool
}

func TestStackAndGlobalsAreBlind(t *testing.T) {
	tool, _ := newTool(t)
	// Stack and global addresses never fire, whatever their contents —
	// the structural blind spot the paper discusses.
	if be := tool.Load(nativevm.StackTop-100, 8); be != nil {
		t.Errorf("stack access flagged: %v", be)
	}
	if be := tool.Store(nativevm.GlobalBase+4, 4); be != nil {
		t.Errorf("global access flagged: %v", be)
	}
}

func TestLeakReporting(t *testing.T) {
	tool, alloc := newTool(t)
	a := alloc.Malloc(10)
	b := alloc.Malloc(20)
	alloc.Free(a)
	_ = b
	leaks := tool.Leaks()
	if len(leaks) != 1 || leaks[0].ObjSize != 20 {
		t.Errorf("leaks = %v", leaks)
	}
}

func TestPerInstrIsCheap(t *testing.T) {
	tool, _ := newTool(t)
	// Sanity: the per-instruction shadow work must terminate and mutate
	// state deterministically.
	before := tool.regShadow
	for i := 0; i < 1000; i++ {
		tool.PerInstr(i & 15)
	}
	if tool.regShadow == before {
		t.Error("register shadow never changed")
	}
}
