package memcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/nativemem"
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
// executed instruction pays memcheck's register-shadow work once.
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

// TestAttachResetsInPlace pins what a machine Reset does to its memcheck
// tool: no block, leak or register shadow survives, the heap starts over at
// the same addresses, and the A/V-bit pages stay allocated, zeroed.
func TestAttachResetsInPlace(t *testing.T) {
	tool, m := attach(t)
	live := m.Alloc.Malloc(24)
	freed := m.Alloc.Malloc(40)
	if err := m.Alloc.Free(freed); err != nil {
		t.Fatal(err)
	}
	tool.Store(nativevm.StackTop-8, 8) // V-bits off the heap
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	kept := tool.BufferBytes()

	if err := m.Reset(nativevm.Config{Tool: tool}); err != nil {
		t.Fatal(err)
	}
	if got := tool.BufferBytes(); got != kept {
		t.Errorf("Attach kept %d bytes of A/V bits, want %d", got, kept)
	}
	for _, bits := range []map[uint64][]byte{tool.abits, tool.vbits} {
		for _, pg := range bits {
			for _, b := range pg {
				if b != 0 {
					t.Fatal("A/V bits survived Attach")
				}
			}
		}
	}
	if leaks := tool.Leaks(); len(leaks) != 0 {
		t.Errorf("Attach left %d leaks", len(leaks))
	}
	if len(tool.freed) != 0 || tool.shadowIdx != 0 || tool.regShadow != [64]uint64{} || tool.heapHi != nativevm.HeapBase {
		t.Errorf("Attach left %d freed blocks, shadow index %d, heapHi %#x", len(tool.freed), tool.shadowIdx, tool.heapHi)
	}
	if err := m.Alloc.Free(freed); err == nil {
		t.Error("free of a block from before Attach succeeded")
	} else if be, ok := err.(*core.BugError); !ok || be.Kind != core.InvalidFree {
		t.Errorf("free of a block from before Attach: %v, want an invalid free", err)
	}
	if again := m.Alloc.Malloc(24); again != live {
		t.Errorf("first malloc after Attach at %#x, want %#x as on a fresh tool", again, live)
	}
}

// TestSetAMatchesPerByte sets A-bits over page-straddling ranges and checks
// them against a per-byte reference: every byte's bit, the set of A-bit
// pages, and the steps charged (size/8 per range).
func TestSetAMatchesPerByte(t *testing.T) {
	tool, m := attach(t)
	const base = uint64(0x5000_0000)
	ref := map[uint64]byte{}
	refPages := map[uint64]bool{}
	for k := range tool.abits {
		refPages[k] = true
	}
	ranges := []struct {
		off  uint64
		size int64
		v    byte
	}{
		{nativemem.PageSize - 5, 10, 1},
		{0, 3*nativemem.PageSize + 7, 1},
		{nativemem.PageSize - 1, 2, 0},
		{2*nativemem.PageSize + 100, nativemem.PageSize, 0},
		{5 * nativemem.PageSize, 0, 1},
		{6*nativemem.PageSize - 3, 3, 1},
		{7*nativemem.PageSize + 10, 20, 0},
	}
	for _, r := range ranges {
		steps := m.Steps()
		tool.setA(base+r.off, r.size, r.v)
		if got, want := m.Steps()-steps, r.size/8; got != want {
			t.Errorf("setA(+%d, %d) charged %d steps, want %d", r.off, r.size, got, want)
		}
		for i := int64(0); i < r.size; i++ {
			a := base + r.off + uint64(i)
			ref[a] = r.v
			refPages[a/nativemem.PageSize] = true
		}
	}
	for a := base; a < base+8*nativemem.PageSize; a++ {
		if got, want := tool.aState(a), ref[a]; got != want {
			t.Fatalf("A-bit at +%d = %d, want %d", a-base, got, want)
		}
	}
	if len(tool.abits) != len(refPages) {
		t.Errorf("%d A-bit pages, want %d", len(tool.abits), len(refPages))
	}
	for p := range refPages {
		if _, ok := tool.abits[p]; !ok {
			t.Errorf("no A-bit page %#x", p)
		}
	}
}
