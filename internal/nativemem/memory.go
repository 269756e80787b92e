// Package nativemem simulates the machine memory model that the paper's
// baseline tools operate on: a flat, byte-addressable 64-bit address space
// with page-granular protection. There are no bounds, no types, and no
// object identities — an out-of-bounds access lands in whatever bytes are
// adjacent, and only touching an unmapped page traps (the SIGSEGV model).
// This is precisely the "native execution model" Safe Sulong abstracts from.
package nativemem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// PageSize is the simulated page size (4 KiB, as on AMD64).
const PageSize = 4096

// Fault is a memory access violation: the simulated SIGSEGV.
type Fault struct {
	Addr  uint64
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("segmentation fault: invalid %s at address 0x%x", kind, f.Addr)
}

// Memory is a sparse paged address space with demand-paged backing. Map
// records a mapped range as one page span, merged with any span it overlaps
// or touches, and the 4 KiB backing store of a page is materialized only on
// its first write, exactly as a kernel serves an anonymous mapping from the
// shared zero page until a write faults. Reads of an untouched mapped page
// come from one immutable zero page, so the observable bytes are identical
// to eager zero-filling while mapping an 8 MiB stack appends one span.
// Reset unmaps everything but keeps the backing buffers for reuse.
type Memory struct {
	pages map[uint64][]byte // backing of written pages only
	spans []span            // mapped pages: sorted, disjoint, never adjacent
	spare [][]byte          // backing of pages written before Reset, dirty
	// recent is a direct-mapped cache in front of pages, indexed by page
	// number modulo its size. It holds written pages only, never the
	// shared zero page, so a write can never find a stale entry.
	recent [recentPages]recentPage
}

// recentPages is the size of Memory's written-page cache.
const recentPages = 64

type recentPage struct {
	p  uint64
	pg []byte // nil: empty
}

type span struct{ first, last uint64 } // inclusive page numbers

// zeroPage backs reads of mapped-but-never-written pages. It must never be
// handed out on a write path.
var zeroPage [PageSize]byte

// New returns an empty address space (everything unmapped; address 0 traps).
func New() *Memory {
	return &Memory{pages: make(map[uint64][]byte, 64)}
}

// Reset unmaps the whole address space, as New leaves it. Written pages
// move to a spare list (they must leave pages: rdPage consults it before
// the spans, so a kept page would make an unmapped address readable), and
// wrPage clears one before handing it out again.
func (m *Memory) Reset() {
	for _, pg := range m.pages {
		m.spare = append(m.spare, pg)
	}
	clear(m.pages)
	m.spans = m.spans[:0]
	m.recent = [recentPages]recentPage{}
}

// BufferBytes is the size of the page backing the memory holds, written and
// spare.
func (m *Memory) BufferBytes() int64 {
	return int64(len(m.pages)+len(m.spare)) * PageSize
}

// Map makes [addr, addr+size) accessible, zero-filled. Partial pages round
// out to full pages, as mmap would. Backing is allocated lazily on first
// write.
func (m *Memory) Map(addr, size uint64) {
	s := span{addr / PageSize, (addr + size - 1) / PageSize}
	if s.last < s.first {
		return
	}
	// The spans s overlaps or touches sit contiguously in the sorted slice.
	i := sort.Search(len(m.spans), func(i int) bool { return m.spans[i].last+1 >= s.first })
	j := i
	for ; j < len(m.spans) && m.spans[j].first <= s.last+1; j++ {
		s.first = min(s.first, m.spans[j].first)
		s.last = max(s.last, m.spans[j].last)
	}
	m.spans = slices.Replace(m.spans, i, j, s)
}

// Mapped reports whether every byte of [addr, addr+size) is accessible.
func (m *Memory) Mapped(addr uint64, size int64) bool {
	i := m.spanOf(addr / PageSize)
	return i >= 0 && (addr+uint64(max(size, 1))-1)/PageSize <= m.spans[i].last
}

// spanOf returns the index of the span holding page p, or -1.
func (m *Memory) spanOf(p uint64) int {
	i := sort.Search(len(m.spans), func(i int) bool { return m.spans[i].last >= p })
	if i < len(m.spans) && m.spans[i].first <= p {
		return i
	}
	return -1
}

// rdPage returns a readable view of the page backing addr: the real backing
// when the page has been written, the shared zero page when it is mapped but
// untouched, nil when unmapped.
func (m *Memory) rdPage(addr uint64) []byte {
	p := addr / PageSize
	if pg := m.written(p); pg != nil {
		return pg
	}
	if m.spanOf(p) < 0 {
		return nil
	}
	return zeroPage[:]
}

// wrPage returns the writable backing of the page at addr, materializing it
// on first write; nil when unmapped.
func (m *Memory) wrPage(addr uint64) []byte {
	p := addr / PageSize
	if pg := m.written(p); pg != nil {
		return pg
	}
	if m.spanOf(p) < 0 {
		return nil
	}
	var pg []byte
	if n := len(m.spare); n > 0 {
		pg, m.spare = m.spare[n-1], m.spare[:n-1]
		clear(pg)
	} else {
		pg = make([]byte, PageSize)
	}
	m.pages[p] = pg
	m.recent[p%recentPages] = recentPage{p, pg}
	return pg
}

// written returns the backing of page p if it has been written, else nil.
func (m *Memory) written(p uint64) []byte {
	e := &m.recent[p%recentPages]
	if e.pg != nil && e.p == p {
		return e.pg
	}
	pg := m.pages[p]
	if pg != nil {
		*e = recentPage{p, pg}
	}
	return pg
}

// Load reads size bytes (1, 2, 4, or 8) little-endian at addr. The value is
// returned zero-extended; callers sign-extend per their type.
func (m *Memory) Load(addr uint64, size int64) (uint64, *Fault) {
	pg := m.rdPage(addr)
	if pg == nil {
		return 0, &Fault{Addr: addr}
	}
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		b := pg[off:]
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(b), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(b)), nil
		case 1:
			return uint64(b[0]), nil
		}
		var v uint64
		for i := int64(0); i < size; i++ {
			v |= uint64(pg[off+uint64(i)]) << (8 * uint(i))
		}
		return v, nil
	}
	// Access straddles a page boundary.
	var v uint64
	for i := int64(0); i < size; i++ {
		b, f := m.LoadByte(addr + uint64(i))
		if f != nil {
			return 0, f
		}
		v |= uint64(b) << (8 * uint(i))
	}
	return v, nil
}

// Store writes size bytes little-endian at addr.
func (m *Memory) Store(addr uint64, size int64, v uint64) *Fault {
	pg := m.wrPage(addr)
	if pg == nil {
		return &Fault{Addr: addr, Write: true}
	}
	off := addr % PageSize
	if off+uint64(size) <= PageSize {
		b := pg[off:]
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(b, v)
			return nil
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(v))
			return nil
		case 1:
			b[0] = byte(v)
			return nil
		}
		for i := int64(0); i < size; i++ {
			pg[off+uint64(i)] = byte(v >> (8 * uint(i)))
		}
		return nil
	}
	for i := int64(0); i < size; i++ {
		if f := m.StoreByte(addr+uint64(i), byte(v>>(8*uint(i)))); f != nil {
			return f
		}
	}
	return nil
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint64) (byte, *Fault) {
	pg := m.rdPage(addr)
	if pg == nil {
		return 0, &Fault{Addr: addr}
	}
	return pg[addr%PageSize], nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, b byte) *Fault {
	pg := m.wrPage(addr)
	if pg == nil {
		return &Fault{Addr: addr, Write: true}
	}
	pg[addr%PageSize] = b
	return nil
}

// ReadBytes copies n bytes out of memory (for I/O and diagnostics).
func (m *Memory) ReadBytes(addr uint64, n int64) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := int64(0); i < n; i++ {
		b, f := m.LoadByte(addr + uint64(i))
		if f != nil {
			return nil, f
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes copies a byte slice into memory.
func (m *Memory) WriteBytes(addr uint64, data []byte) *Fault {
	for i, b := range data {
		if f := m.StoreByte(addr+uint64(i), b); f != nil {
			return f
		}
	}
	return nil
}

// CString reads a NUL-terminated string (bounded by max).
func (m *Memory) CString(addr uint64, max int64) (string, *Fault) {
	var buf []byte
	for i := int64(0); i < max; i++ {
		b, f := m.LoadByte(addr + uint64(i))
		if f != nil {
			return "", f
		}
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf), nil
}
