// Package asan models LLVM's AddressSanitizer on the simulated native
// machine: shadow state for every mapped byte, redzones around heap, stack,
// and global objects, a quarantine that delays heap reuse, and libc
// interceptors that validate arguments of selected functions.
//
// The model includes ASan's documented blind spots, which the paper's
// evaluation turns into missed bugs:
//
//   - accesses that jump over a redzone into another valid object (Fig. 14),
//   - dangling pointers whose block left quarantine and was re-allocated,
//   - the argv/envp block, set up before instrumented code runs (Fig. 10),
//   - functions without interceptors (strtok, Fig. 11),
//   - non-pointer variadic arguments (printf's interceptor checks only
//     %s/%n-style pointers, Fig. 12).
package asan

import (
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/nativemem"
	"repro/internal/nativevm"
)

// Shadow byte states.
const (
	shadowValid byte = iota
	shadowHeapRedzone
	shadowStackRedzone
	shadowGlobalRedzone
	shadowFreed
)

// Options tunes the instrumentation (the ablation benchmarks sweep these).
type Options struct {
	HeapRedzone     int64
	StackRedzone    int64
	GlobalRedzone   int64
	QuarantineBytes int64
	// InstrumentGlobals models -fno-common + global instrumentation; the
	// paper had to enable it to catch zero-initialized global overflows.
	InstrumentGlobals bool
}

// DefaultOptions mirrors ASan's defaults (scaled down: the real quarantine
// is 256 MB; the simulated heap is smaller).
func DefaultOptions() Options {
	return Options{
		HeapRedzone:       16,
		StackRedzone:      32,
		GlobalRedzone:     32,
		QuarantineBytes:   1 << 18,
		InstrumentGlobals: true,
	}
}

// Tool is the ASan instance: checker, redzone allocator and the state its
// libc interceptors consult (nativevm.Tool).
type Tool struct {
	opts   Options
	shadow nativemem.Pages // page index -> per-byte state
	// Heap bookkeeping.
	live       map[uint64]int64 // addr -> user size
	freedSize  map[uint64]int64 // addr -> size while in quarantine
	quarantine []uint64
	quarBytes  int64
	inner      nativevm.FreeListAlloc

	// one-entry shadow page cache: most accesses hit the same page.
	cachePage uint64
	cacheBuf  []byte

	// m is the machine the tool is attached to: it charges data-
	// proportional shadow work (range checks, poisoning) against the run's
	// step budget and captures the guest backtrace at the current
	// instruction. allocStacks/freeStacks remember the malloc and free
	// sites of heap blocks (real ASan stores these in the chunk header),
	// so use-after-free and double-free reports carry both.
	m           *nativevm.Machine
	allocStacks map[uint64]diag.Stack
	freeStacks  map[uint64]diag.Stack
}

// New builds an ASan tool.
func New(opts Options) *Tool {
	return &Tool{
		opts:        opts,
		live:        map[uint64]int64{},
		freedSize:   map[uint64]int64{},
		allocStacks: map[uint64]diag.Stack{},
		freeStacks:  map[uint64]diag.Stack{},
	}
}

func (t *Tool) state(addr uint64) byte {
	idx := addr / nativemem.PageSize
	if idx == t.cachePage && t.cacheBuf != nil {
		return t.cacheBuf[addr%nativemem.PageSize]
	}
	pg := t.shadow.Get(idx)
	if pg == nil {
		return shadowValid // unshadowed memory (argv block, libc internals) is never flagged
	}
	t.cachePage, t.cacheBuf = idx, pg
	return pg[addr%nativemem.PageSize]
}

// setState sets the shadow of [addr, addr+size) to s, one page lookup per
// page the range touches. Every page it touches gets a shadow page, even
// for shadowValid.
func (t *Tool) setState(addr uint64, size int64, s byte) {
	t.m.AddSteps(size / 8)
	for size > 0 {
		idx, off := addr/nativemem.PageSize, addr%nativemem.PageSize
		pg := t.shadow.Make(idx)
		n := min(uint64(size), nativemem.PageSize-off)
		seg := pg[off : off+n]
		for i := range seg {
			seg[i] = s
		}
		addr += n
		size -= int64(n)
	}
}

func (t *Tool) report(s byte, addr uint64, size int64, acc core.AccessKind) *core.BugError {
	be := &core.BugError{Access: acc, Size: size, Func: "asan"}
	switch s {
	case shadowFreed:
		be.Kind = core.UseAfterFree
		be.Mem = core.HeapMem
	case shadowHeapRedzone:
		be.Kind = core.OutOfBounds
		be.Mem = core.HeapMem
	case shadowStackRedzone:
		be.Kind = core.OutOfBounds
		be.Mem = core.AutoMem
	case shadowGlobalRedzone:
		be.Kind = core.OutOfBounds
		be.Mem = core.StaticMem
	default:
		return nil
	}
	be.AccessStack = t.m.CaptureStack()
	t.blameHeapBlock(be, addr)
	return be
}

// blameHeapBlock attaches allocation/free-site backtraces when the faulting
// address falls inside a tracked heap block or its redzones — the lookup
// real ASan does against its chunk headers when printing a report.
func (t *Tool) blameHeapBlock(be *core.BugError, addr uint64) {
	switch be.Kind {
	case core.UseAfterFree:
		for base, size := range t.freedSize {
			if addr >= base && addr < base+uint64(size) {
				be.AllocStack = t.allocStacks[base]
				be.FreeStack = t.freeStacks[base]
				return
			}
		}
	case core.OutOfBounds:
		if be.Mem != core.HeapMem {
			return
		}
		rz := uint64(t.opts.HeapRedzone)
		for base, size := range t.live {
			if addr+rz >= base && addr < base+uint64(size)+rz {
				be.AllocStack = t.allocStacks[base]
				return
			}
		}
	}
}

// check validates an access ASan-style: the shadow of the first and last
// byte (real ASan checks up to 8 bytes with one shadow load; the blind spot
// — valid memory beyond the redzone — is identical).
func (t *Tool) check(addr uint64, size int64, acc core.AccessKind) *core.BugError {
	if size <= 0 {
		return nil
	}
	last := addr + uint64(size-1)
	idx := addr / nativemem.PageSize
	if last/nativemem.PageSize == idx {
		// Fast path: one shadow "load" covers the access (as the real
		// compiled check does).
		var pg []byte
		if idx == t.cachePage && t.cacheBuf != nil {
			pg = t.cacheBuf
		} else {
			pg = t.shadow.Get(idx)
			if pg == nil {
				return nil
			}
			t.cachePage, t.cacheBuf = idx, pg
		}
		if s := pg[addr%nativemem.PageSize]; s != shadowValid {
			return t.report(s, addr, size, acc)
		}
		if size > 1 {
			if s := pg[last%nativemem.PageSize]; s != shadowValid {
				return t.report(s, addr, size, acc)
			}
		}
		return nil
	}
	if be := t.report(t.state(addr), addr, size, acc); be != nil {
		return be
	}
	if size > 1 {
		if be := t.report(t.state(last), addr, size, acc); be != nil {
			return be
		}
	}
	return nil
}

// Load implements nativevm.Checker.
func (t *Tool) Load(addr uint64, size int64) *core.BugError {
	return t.check(addr, size, core.Read)
}

// Store implements nativevm.Checker.
func (t *Tool) Store(addr uint64, size int64) *core.BugError {
	return t.check(addr, size, core.Write)
}

// CheckRange validates every byte of a range (interceptors use this).
func (t *Tool) CheckRange(addr uint64, size int64, acc core.AccessKind) *core.BugError {
	t.m.AddSteps(size / 8)
	for i := int64(0); i < size; i++ {
		if be := t.report(t.state(addr+uint64(i)), addr+uint64(i), 1, acc); be != nil {
			return be
		}
	}
	return nil
}

// StackAlloc poisons redzones around a new stack object.
func (t *Tool) StackAlloc(addr uint64, size int64) {
	rz := t.opts.StackRedzone
	t.setState(addr, size, shadowValid)
	t.setState(addr+uint64(size), rz, shadowStackRedzone)
	if addr > uint64(rz) {
		t.setState(addr-uint64(rz), rz, shadowStackRedzone)
	}
}

// StackFree unpoisons a frame's stack range on return.
func (t *Tool) StackFree(lo, hi uint64) {
	t.setState(lo, int64(hi-lo), shadowValid)
}

// GlobalAlloc poisons the gap after each instrumented global.
func (t *Tool) GlobalAlloc(addr uint64, size int64) {
	if !t.opts.InstrumentGlobals {
		return
	}
	t.setState(addr, size, shadowValid)
	t.setState(addr+uint64(size), t.opts.GlobalRedzone, shadowGlobalRedzone)
}

// Attach implements nativevm.Tool: the heap gets redzones and a quarantine.
// A tool attached before starts over in place: its heap tables and
// quarantine empty, its allocator reset, and its shadow emptied in
// constant time, keeping the page buffers for reuse (nativemem.Pages; a
// missing page reads shadowValid).
func (t *Tool) Attach(m *nativevm.Machine) nativevm.Allocator {
	t.m = m
	t.inner.Reset(m.Mem)
	t.shadow.Reset()
	clear(t.live)
	clear(t.freedSize)
	clear(t.allocStacks)
	clear(t.freeStacks)
	t.quarantine = t.quarantine[:0]
	t.quarBytes = 0
	t.cachePage, t.cacheBuf = 0, nil
	return (*asanAlloc)(t)
}

// BufferBytes is the size of the shadow pages the tool keeps across Attach.
func (t *Tool) BufferBytes() int64 { return t.shadow.BufferBytes() }

// Redzones implements nativevm.Tool: ASan pads stack objects and globals.
func (t *Tool) Redzones() (stack, global int64) {
	return t.opts.StackRedzone, t.opts.GlobalRedzone
}

// SeesLibc implements nativevm.Tool: the prebuilt libc is not compiled with
// ASan, so only its interceptors see libc calls.
func (t *Tool) SeesLibc() bool { return false }

// asanAlloc is the Tool acting as the heap allocator.
type asanAlloc Tool

func (a *asanAlloc) tool() *Tool { return (*Tool)(a) }

func (a *asanAlloc) Malloc(size int64) uint64 {
	t := a.tool()
	rz := t.opts.HeapRedzone
	raw := t.inner.Malloc(size + 2*rz)
	if raw == 0 {
		return 0
	}
	addr := raw + uint64(rz)
	t.setState(raw, rz, shadowHeapRedzone)
	t.setState(addr, size, shadowValid)
	t.setState(addr+uint64(size), rz, shadowHeapRedzone)
	t.live[addr] = size
	t.allocStacks[addr] = t.m.CaptureStack()
	delete(t.freeStacks, addr) // block re-allocated: old free site is stale
	return addr
}

func (a *asanAlloc) Free(addr uint64) error {
	t := a.tool()
	size, ok := t.live[addr]
	if !ok {
		if _, inQuarantine := t.freedSize[addr]; inQuarantine {
			return &core.BugError{Kind: core.DoubleFree, Access: core.Free, Mem: core.HeapMem, Func: "asan",
				AccessStack: t.m.CaptureStack(), AllocStack: t.allocStacks[addr], FreeStack: t.freeStacks[addr]}
		}
		return &core.BugError{Kind: core.InvalidFree, Access: core.Free, Func: "asan", AccessStack: t.m.CaptureStack()}
	}
	delete(t.live, addr)
	t.freedSize[addr] = size
	t.freeStacks[addr] = t.m.CaptureStack()
	t.setState(addr, size, shadowFreed)
	t.quarantine = append(t.quarantine, addr)
	t.quarBytes += size
	// Evict oldest blocks once over budget: their memory becomes reusable,
	// and stale pointers into them go dark (the paper's P3).
	for t.quarBytes > t.opts.QuarantineBytes && len(t.quarantine) > 0 {
		old := t.quarantine[0]
		t.quarantine = t.quarantine[1:]
		osize, ok := t.freedSize[old]
		if !ok {
			continue
		}
		delete(t.freedSize, old)
		delete(t.allocStacks, old)
		delete(t.freeStacks, old)
		t.quarBytes -= osize
		t.setState(old, osize, shadowValid)
		t.inner.Free(old - uint64(t.opts.HeapRedzone))
	}
	return nil
}

func (a *asanAlloc) SizeOf(addr uint64) (int64, bool) {
	s, ok := a.tool().live[addr]
	return s, ok
}
