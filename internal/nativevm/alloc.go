package nativevm

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/nativemem"
)

// FreeListAlloc is the default native heap: a bump allocator with size-class
// free lists and immediate LIFO reuse. Reuse is the property the paper's P3
// hinges on: memory freed and quickly re-allocated makes dangling-pointer
// accesses look valid again to shadow-memory tools.
type FreeListAlloc struct {
	mem   *nativemem.Memory
	next  uint64
	limit uint64
	free  map[int64][]uint64
	sizes map[uint64]int64
}

// NewFreeListAlloc builds the default allocator over the heap segment.
func NewFreeListAlloc(mem *nativemem.Memory) *FreeListAlloc {
	a := &FreeListAlloc{}
	a.Reset(mem)
	return a
}

// Reset empties the heap over mem, as NewFreeListAlloc(mem) builds it,
// keeping the allocator's maps. It readies a zero FreeListAlloc too.
func (a *FreeListAlloc) Reset(mem *nativemem.Memory) {
	a.mem = mem
	a.next = HeapBase
	a.limit = HeapBase + (1 << 31)
	if a.free == nil {
		a.free, a.sizes = map[int64][]uint64{}, map[uint64]int64{}
	}
	clear(a.free)
	clear(a.sizes)
}

func roundClass(size int64) int64 {
	if size < 16 {
		size = 16
	}
	return (size + 15) &^ 15
}

// Malloc returns a 16-aligned block; freed blocks of the same class are
// reused immediately, newest first.
func (a *FreeListAlloc) Malloc(size int64) uint64 {
	if size < 0 {
		return 0
	}
	cls := roundClass(size)
	if lst := a.free[cls]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		a.free[cls] = lst[:len(lst)-1]
		a.sizes[addr] = cls
		return addr
	}
	addr := a.next
	a.next += uint64(cls)
	if a.next > a.limit {
		return 0 // out of simulated heap
	}
	a.mem.Map(addr, uint64(cls))
	a.sizes[addr] = cls
	return addr
}

// Free releases a block back to its size class. Freeing an unknown pointer
// is what glibc's consistency checks abort on ("free(): invalid pointer").
func (a *FreeListAlloc) Free(addr uint64) error {
	cls, ok := a.sizes[addr]
	if !ok {
		return &GlibcAbort{What: "free(): invalid pointer", Addr: addr}
	}
	delete(a.sizes, addr)
	a.free[cls] = append(a.free[cls], addr)
	return nil
}

// SizeOf reports the usable size of a live block.
func (a *FreeListAlloc) SizeOf(addr uint64) (int64, bool) {
	s, ok := a.sizes[addr]
	return s, ok
}

// gatedAlloc wraps the configured heap allocator (default, ASan's, or
// memcheck's) with the run's fault injector. Every guest malloc is charged
// or denied *before* the inner allocator sees it, so heap budgets and fault
// schedules produce identical NULL returns across all four engines, and a
// denied request never maps host memory. It tracks the *requested* size per
// block (inner allocators round to size classes and add redzones), so
// Release returns exactly what ChargeHeap took.
type gatedAlloc struct {
	inner   Allocator
	inj     *fault.Injector
	charged map[uint64]int64
}

func (g *gatedAlloc) Malloc(size int64) uint64 {
	if g.inj.ChargeHeap(size) != fault.OK {
		return 0
	}
	addr := g.inner.Malloc(size)
	if addr == 0 {
		g.inj.Release(size) // inner allocator ran out of simulated heap
		return 0
	}
	g.charged[addr] = size
	return addr
}

func (g *gatedAlloc) Free(addr uint64) error {
	err := g.inner.Free(addr)
	if err == nil {
		if sz, ok := g.charged[addr]; ok {
			g.inj.Release(sz)
			delete(g.charged, addr)
		}
	}
	return err
}

func (g *gatedAlloc) SizeOf(addr uint64) (int64, bool) { return g.inner.SizeOf(addr) }

// GlibcAbort models glibc detecting heap misuse and aborting the process.
type GlibcAbort struct {
	What string
	Addr uint64
}

func (e *GlibcAbort) Error() string {
	return fmt.Sprintf("%s (0x%x): process aborted", e.What, e.Addr)
}
