package asan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/nativemem"
	"repro/internal/nativevm"
)

// attach builds a tool from opts and attaches it to a machine over a
// one-function module, the way the facade does.
func attach(t *testing.T, opts Options) *Tool {
	t.Helper()
	mod, err := ir.Parse(`module "t"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(opts)
	if _, err := nativevm.New(mod, nativevm.Config{Tool: tool}); err != nil {
		t.Fatal(err)
	}
	return tool
}

func newTool(t *testing.T) *Tool { return attach(t, DefaultOptions()) }

func TestHeapRedzonesFire(t *testing.T) {
	tool := newTool(t)
	alloc := (*asanAlloc)(tool)
	addr := alloc.Malloc(32)
	if addr == 0 {
		t.Fatal("malloc failed")
	}
	if be := tool.Load(addr, 4); be != nil {
		t.Errorf("in-bounds load flagged: %v", be)
	}
	if be := tool.Load(addr+31, 1); be != nil {
		t.Errorf("last byte flagged: %v", be)
	}
	be := tool.Load(addr+32, 1)
	if be == nil || be.Kind != core.OutOfBounds || be.Mem != core.HeapMem {
		t.Errorf("right redzone: %v", be)
	}
	be = tool.Store(addr-1, 1)
	if be == nil || be.Kind != core.OutOfBounds {
		t.Errorf("left redzone: %v", be)
	}
}

func TestBeyondRedzoneIsInvisible(t *testing.T) {
	tool := newTool(t)
	alloc := (*asanAlloc)(tool)
	addr := alloc.Malloc(32)
	// Far past the redzone: unshadowed memory never fires (Fig. 14).
	if be := tool.Load(addr+100000, 4); be != nil {
		t.Errorf("unshadowed access flagged: %v", be)
	}
}

func TestFreedMemoryAndQuarantine(t *testing.T) {
	tool := newTool(t)
	alloc := (*asanAlloc)(tool)
	addr := alloc.Malloc(64)
	if err := alloc.Free(addr); err != nil {
		t.Fatal(err)
	}
	be := tool.Load(addr, 4)
	if be == nil || be.Kind != core.UseAfterFree {
		t.Errorf("freed-in-quarantine read: %v", be)
	}
	// Double free detected while in quarantine.
	if err := alloc.Free(addr); err == nil {
		t.Error("double free not detected")
	} else if be, ok := err.(*core.BugError); !ok || be.Kind != core.DoubleFree {
		t.Errorf("double free kind: %v", err)
	}
	// Invalid free of a never-allocated address.
	if err := alloc.Free(0x123456); err == nil {
		t.Error("invalid free not detected")
	}
}

func TestQuarantineEvictionLosesUAF(t *testing.T) {
	opts := DefaultOptions()
	opts.QuarantineBytes = 128 // tiny: evicts almost immediately
	tool := attach(t, opts)
	alloc := (*asanAlloc)(tool)

	stale := alloc.Malloc(64)
	alloc.Free(stale)
	// Churn past the quarantine budget.
	for i := 0; i < 8; i++ {
		alloc.Free(alloc.Malloc(64))
	}
	// Reuse the storage.
	fresh := alloc.Malloc(64)
	_ = fresh
	if be := tool.Load(stale, 4); be != nil && be.Kind == core.UseAfterFree {
		// Only a failure if the block was genuinely re-allocated.
		if fresh == stale {
			t.Errorf("reused block still reports UAF: %v", be)
		}
	}
}

func TestStackRedzones(t *testing.T) {
	tool := newTool(t)
	tool.StackAlloc(0x7000_0000, 16)
	if be := tool.Load(0x7000_0000, 8); be != nil {
		t.Errorf("object flagged: %v", be)
	}
	be := tool.Load(0x7000_0010, 1)
	if be == nil || be.Mem != core.AutoMem {
		t.Errorf("stack redzone above: %v", be)
	}
	be = tool.Load(0x7000_0000-1, 1)
	if be == nil || be.Mem != core.AutoMem {
		t.Errorf("stack redzone below: %v", be)
	}
	// Frame teardown unpoisons.
	tool.StackFree(0x7000_0000-32, 0x7000_0000+48)
	if be := tool.Load(0x7000_0010, 1); be != nil {
		t.Errorf("after StackFree: %v", be)
	}
}

func TestGlobalRedzones(t *testing.T) {
	tool := newTool(t)
	tool.GlobalAlloc(0x10000, 8)
	if be := tool.Load(0x10000, 8); be != nil {
		t.Errorf("global flagged: %v", be)
	}
	be := tool.Load(0x10008, 4)
	if be == nil || be.Mem != core.StaticMem {
		t.Errorf("global redzone: %v", be)
	}
	// With instrumentation off, nothing fires.
	opts := DefaultOptions()
	opts.InstrumentGlobals = false
	tool2 := attach(t, opts)
	tool2.GlobalAlloc(0x10000, 8)
	if be := tool2.Load(0x10008, 4); be != nil {
		t.Errorf("uninstrumented globals should not fire: %v", be)
	}
}

func TestCheckRangeScansEveryByte(t *testing.T) {
	tool := newTool(t)
	alloc := (*asanAlloc)(tool)
	addr := alloc.Malloc(16)
	// A 32-byte range starting in-bounds crosses the right redzone.
	if be := tool.CheckRange(addr, 32, core.Write); be == nil {
		t.Error("CheckRange should scan into the redzone")
	}
	if be := tool.CheckRange(addr, 16, core.Read); be != nil {
		t.Errorf("exact range flagged: %v", be)
	}
}

func TestAccessSpanningPageBoundary(t *testing.T) {
	tool := newTool(t)
	// Poison straddles a shadow-page boundary; the slow path must see it.
	base := uint64(nativemem.PageSize*10 - 4)
	tool.setState(base, 8, shadowHeapRedzone)
	if be := tool.Load(base+2, 4); be == nil {
		t.Error("cross-page poisoned access missed")
	}
}

// TestInterceptorFindsToolThroughMachine pins the shared overlay's wiring:
// each interceptor call checks against the shadow of the tool attached to
// the machine it is passed, and is plain libc on a machine without one.
func TestInterceptorFindsToolThroughMachine(t *testing.T) {
	mod, err := ir.Parse(`module "t"
global @s [4 x i8] = bytes "abc\x00"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	machine := func() (*Tool, *nativevm.Machine) {
		tool := New(DefaultOptions())
		m, err := nativevm.New(mod, nativevm.Config{Tool: tool, Libc: Libc()})
		if err != nil {
			t.Fatal(err)
		}
		return tool, m
	}
	poisoned, m1 := machine()
	_, m2 := machine()
	s := m1.GlobalAddr("s")
	poisoned.setState(s+2, 1, shadowGlobalRedzone)
	call := &nativevm.CallCtx{Args: []nativevm.Value{nativevm.IntVal(int64(s))}}
	_, err = Libc()["strlen"](m1, call)
	if be, ok := err.(*core.BugError); !ok || be.Func != "asan:strlen" || be.Mem != core.StaticMem {
		t.Errorf("strlen over a poisoned byte: got %v, want an asan:strlen report", err)
	}
	if n, err := Libc()["strlen"](m2, call); err != nil || n.I != 3 {
		t.Errorf("the other machine's tool is clean: strlen = %d, %v", n.I, err)
	}
	// Without an ASan tool the overlay is plain libc.
	bare, err := nativevm.New(mod, nativevm.Config{Libc: Libc()})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Libc()["strlen"](bare, call); err != nil || n.I != 3 {
		t.Errorf("bare machine: strlen = %d, %v", n.I, err)
	}
}

// TestAttachResetsInPlace pins what a machine Reset does to its ASan tool:
// the live and freed tables, the quarantine and the poison are gone, the
// heap starts over at the same addresses, and the shadow pages stay
// allocated, zeroed.
func TestAttachResetsInPlace(t *testing.T) {
	mod, err := ir.Parse(`module "t"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(DefaultOptions())
	m, err := nativevm.New(mod, nativevm.Config{Tool: tool})
	if err != nil {
		t.Fatal(err)
	}
	alloc := (*asanAlloc)(tool)
	live := alloc.Malloc(32)
	freed := alloc.Malloc(64)
	if err := alloc.Free(freed); err != nil {
		t.Fatal(err)
	}
	if be := tool.Load(freed, 1); be == nil || be.Kind != core.UseAfterFree {
		t.Fatalf("setup: freed block not poisoned: %v", be)
	}
	kept := tool.BufferBytes()

	if err := m.Reset(nativevm.Config{Tool: tool}); err != nil {
		t.Fatal(err)
	}
	if got := tool.BufferBytes(); got != kept {
		t.Errorf("Attach kept %d bytes of shadow, want %d", got, kept)
	}
	for idx, pg := range tool.shadow {
		for off, b := range pg {
			if b != shadowValid {
				t.Fatalf("shadow byte %#x is %d after Attach", idx*nativemem.PageSize+uint64(off), b)
			}
		}
	}
	if len(tool.live) != 0 || len(tool.freedSize) != 0 || len(tool.quarantine) != 0 || tool.quarBytes != 0 ||
		len(tool.allocStacks) != 0 || len(tool.freeStacks) != 0 {
		t.Errorf("Attach left heap state: %d live, %d freed, %d quarantined (%d bytes), %d/%d stacks",
			len(tool.live), len(tool.freedSize), len(tool.quarantine), tool.quarBytes, len(tool.allocStacks), len(tool.freeStacks))
	}
	if be := tool.Load(freed, 1); be != nil {
		t.Errorf("freed poison survived Attach: %v", be)
	}
	if err := m.Alloc.Free(freed); err == nil {
		t.Error("free of a block from before Attach succeeded")
	} else if be, ok := err.(*core.BugError); !ok || be.Kind != core.InvalidFree {
		t.Errorf("free of a block from before Attach: %v, want an invalid free", err)
	}
	if again := m.Alloc.Malloc(32); again != live {
		t.Errorf("first malloc after Attach at %#x, want %#x as on a fresh tool", again, live)
	}
}

// TestSetStateMatchesPerByte poisons and unpoisons page-straddling ranges
// and checks the shadow against a per-byte reference: every byte's state,
// the set of shadow pages (a touched page gets one even when the range is
// valid), and the steps charged (size/8 per range).
func TestSetStateMatchesPerByte(t *testing.T) {
	tool := newTool(t)
	const base = uint64(0x5000_0000)
	ref := map[uint64]byte{}
	refPages := map[uint64]bool{}
	for k := range tool.shadow {
		refPages[k] = true
	}
	ranges := []struct {
		off  uint64
		size int64
		s    byte
	}{
		{nativemem.PageSize - 5, 10, shadowHeapRedzone},
		{0, 3*nativemem.PageSize + 7, shadowFreed},
		{nativemem.PageSize - 1, 2, shadowValid},
		{2*nativemem.PageSize + 100, nativemem.PageSize, shadowStackRedzone},
		{5 * nativemem.PageSize, 0, shadowFreed},
		{6*nativemem.PageSize - 3, 3, shadowGlobalRedzone},
		{7*nativemem.PageSize + 10, 20, shadowValid},
	}
	for _, r := range ranges {
		steps := tool.m.Steps()
		tool.setState(base+r.off, r.size, r.s)
		if got, want := tool.m.Steps()-steps, r.size/8; got != want {
			t.Errorf("setState(+%d, %d) charged %d steps, want %d", r.off, r.size, got, want)
		}
		for i := int64(0); i < r.size; i++ {
			a := base + r.off + uint64(i)
			ref[a] = r.s
			refPages[a/nativemem.PageSize] = true
		}
	}
	for a := base; a < base+8*nativemem.PageSize; a++ {
		if got, want := tool.state(a), ref[a]; got != want {
			t.Fatalf("shadow at +%d = %d, want %d", a-base, got, want)
		}
	}
	if len(tool.shadow) != len(refPages) {
		t.Errorf("%d shadow pages, want %d", len(tool.shadow), len(refPages))
	}
	for p := range refPages {
		if _, ok := tool.shadow[p]; !ok {
			t.Errorf("no shadow page %#x", p)
		}
	}
}
