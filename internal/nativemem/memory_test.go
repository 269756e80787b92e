package nativemem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMapAndAccess(t *testing.T) {
	m := New()
	m.Map(0x1000, 100)
	if !m.Mapped(0x1000, 100) {
		t.Error("mapped range not mapped")
	}
	if m.Mapped(0, 1) {
		t.Error("null page should be unmapped")
	}
	if f := m.Store(0x1000, 8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	v, f := m.Load(0x1000, 8)
	if f != nil || v != 0x1122334455667788 {
		t.Errorf("load = %#x, %v", v, f)
	}
	// little-endian byte order
	b, _ := m.LoadByte(0x1000)
	if b != 0x88 {
		t.Errorf("first byte = %#x, want 0x88", b)
	}
}

func TestFaultOnUnmapped(t *testing.T) {
	m := New()
	if _, f := m.Load(0x5000, 4); f == nil {
		t.Error("load of unmapped memory must fault")
	}
	if f := m.Store(0, 1, 1); f == nil || !f.Write {
		t.Errorf("store to NULL page: %v", f)
	}
	f := &Fault{Addr: 0x10, Write: false}
	if f.Error() == "" {
		t.Error("fault message empty")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	m.Map(PageSize-4, 8) // maps pages 0 and 1
	if f := m.Store(PageSize-2, 4, 0xAABBCCDD); f != nil {
		t.Fatal(f)
	}
	v, f := m.Load(PageSize-2, 4)
	if f != nil || v != 0xAABBCCDD {
		t.Errorf("cross-page round trip: %#x %v", v, f)
	}
}

func TestPartialPageFaultOnStraddle(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize) // page 1 only
	// Straddling into unmapped page 2 must fault.
	if _, f := m.Load(0x1000+PageSize-2, 4); f == nil {
		t.Error("straddle into unmapped page should fault")
	}
}

func TestBytesAndCString(t *testing.T) {
	m := New()
	m.Map(0x3000, 64)
	if f := m.WriteBytes(0x3000, []byte("hello\x00world")); f != nil {
		t.Fatal(f)
	}
	s, f := m.CString(0x3000, 64)
	if f != nil || s != "hello" {
		t.Errorf("CString = %q, %v", s, f)
	}
	data, f := m.ReadBytes(0x3006, 5)
	if f != nil || string(data) != "world" {
		t.Errorf("ReadBytes = %q", data)
	}
}

func TestLoadStoreRoundTripProperty(t *testing.T) {
	m := New()
	m.Map(0x4000, 4*PageSize)
	f := func(off uint16, v uint64, szSel uint8) bool {
		sizes := []int64{1, 2, 4, 8}
		size := sizes[szSel%4]
		addr := 0x4000 + uint64(off)%(4*PageSize-8)
		if fa := m.Store(addr, size, v); fa != nil {
			return false
		}
		got, fa := m.Load(addr, size)
		if fa != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*uint(size)) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacentWritesAreSilent(t *testing.T) {
	// The property the whole paper rests on: on the native model, an
	// overflow of one object silently lands in its neighbour.
	m := New()
	m.Map(0x5000, 64)
	m.Store(0x5000, 8, 1) // "object A"
	m.Store(0x5008, 8, 2) // "object B" right next to it
	// Overflow A by 8 bytes: corrupts B, no fault.
	if f := m.Store(0x5008, 8, 99); f != nil {
		t.Fatal("intra-page overflow must not fault")
	}
	v, _ := m.Load(0x5008, 8)
	if v != 99 {
		t.Error("corruption did not land")
	}
}

// The native machine's stack geometry (nativevm.StackTop/StackSize): one
// 8 MiB range ending one guard page below the argv block.
const (
	stackTop  = 0x7fff_0000
	stackSize = 8 << 20
	stackLo   = stackTop - stackSize
)

func TestStackMapIsLazy(t *testing.T) {
	m := New()
	m.Map(stackLo, stackSize)
	if len(m.pages.Made()) != 0 || len(m.spans) != 1 {
		t.Fatalf("mapping the stack: %d pages, %d spans; want 0, 1", len(m.pages.Made()), len(m.spans))
	}
	if f := m.Store(stackTop-8, 8, 42); f != nil {
		t.Fatal(f)
	}
	if len(m.pages.Made()) != 1 {
		t.Fatalf("one store materialized %d pages, want 1", len(m.pages.Made()))
	}
	if _, f := m.Load(stackTop, 1); f == nil {
		t.Error("the page above the stack must stay unmapped")
	}
}

// TestResetUnmapsWrittenPages pins Reset against the page map: a page
// written before Reset and not mapped again after it faults on read and on
// write, and a page mapped again reads zero though its old backing is
// reused.
func TestResetUnmapsWrittenPages(t *testing.T) {
	m := New()
	m.Map(0x1000, 2*PageSize)
	for _, a := range []uint64{0x1000, 0x2000} {
		if f := m.Store(a+8, 8, 0xdeadbeef); f != nil {
			t.Fatal(f)
		}
	}
	m.Reset()
	if got := m.BufferBytes(); got != 2*PageSize {
		t.Errorf("Reset keeps %d bytes of backing, want %d", got, 2*PageSize)
	}
	if _, f := m.Load(0x1008, 8); f == nil {
		t.Error("read of a page written before Reset and not re-mapped must fault")
	}
	if f := m.Store(0x1008, 8, 1); f == nil || !f.Write {
		t.Errorf("write to a page written before Reset and not re-mapped: %v", f)
	}
	m.Map(0x2000, PageSize)
	if v, f := m.Load(0x2008, 8); f != nil || v != 0 {
		t.Errorf("re-mapped page reads %#x, %v; want 0", v, f)
	}
	if f := m.Store(0x2000, 1, 7); f != nil {
		t.Fatal(f)
	}
	if v, f := m.Load(0x2008, 8); f != nil || v != 0 {
		t.Errorf("re-mapped page after its first write reads %#x, %v; want 0", v, f)
	}
	if got := m.BufferBytes(); got != 2*PageSize {
		t.Errorf("a write after Reset allocated: %d bytes of backing, want %d", got, 2*PageSize)
	}
}

// refMemory is the reference model the span representation is checked
// against: a set of mapped pages plus a byte map, every access byte by byte.
type refMemory struct {
	mapped map[uint64]bool
	bytes  map[uint64]byte
}

func (r *refMemory) Reset() {
	r.mapped, r.bytes = map[uint64]bool{}, map[uint64]byte{}
}

func (r *refMemory) Map(addr, size uint64) {
	for p := addr / PageSize; p <= (addr+size-1)/PageSize; p++ {
		r.mapped[p] = true
	}
}

func (r *refMemory) load(addr uint64, n int64) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		if !r.mapped[a/PageSize] {
			return nil, &Fault{Addr: a}
		}
		out[i] = r.bytes[a]
	}
	return out, nil
}

func (r *refMemory) store(addr uint64, data []byte) *Fault {
	for i, b := range data {
		a := addr + uint64(i)
		if !r.mapped[a/PageSize] {
			return &Fault{Addr: a, Write: true}
		}
		r.bytes[a] = b
	}
	return nil
}

func (r *refMemory) cstring(addr uint64, max int64) (string, *Fault) {
	var buf []byte
	for i := int64(0); i < max; i++ {
		b, f := r.load(addr+uint64(i), 1)
		if f != nil {
			return "", f
		}
		if b[0] == 0 {
			break
		}
		buf = append(buf, b[0])
	}
	return string(buf), nil
}

// memOp is one random operation of TestMemoryMatchesReference.
type memOp struct {
	Kind, Region, Size uint8
	Off                uint16
	Len                uint16
	Val                uint64
}

// Operations land in a few eight-page windows: the NULL page, a data
// segment, the bottom of the stack (where a growing heap runs into it) and
// the top of the stack (with the guard page and the argv block above it).
var opWindows = []uint64{0, 0x10000, stackLo - 4*PageSize, stackTop - 4*PageSize}

func TestMemoryMatchesReference(t *testing.T) {
	check := func(stackFirst bool, ops []memOp) bool {
		m := New()
		r := &refMemory{}
		r.Reset()
		// bump models FreeListAlloc: consecutive blocks from below the stack,
		// allowed (by its 2 GiB limit) to grow into it.
		bump := uint64(stackLo - 3*PageSize)
		if stackFirst {
			m.Map(stackLo, stackSize)
			r.Map(stackLo, stackSize)
		}
		for i, op := range ops {
			off := uint64(op.Off) % (8 * PageSize)
			if op.Size&0x80 != 0 {
				// Just below a page boundary, so accesses straddle it.
				off = off/PageSize*PageSize + PageSize - uint64(op.Size>>4&7)
			}
			addr := opWindows[int(op.Region)%len(opWindows)] + off
			size := []int64{1, 2, 4, 8}[op.Size%4]
			var got, want string
			switch op.Kind % 9 {
			case 0, 1:
				n := uint64(op.Len) % (3 * PageSize)
				m.Map(addr, n)
				r.Map(addr, n)
			case 2:
				n := 16 + uint64(op.Len)%(2*PageSize)
				m.Map(bump, n)
				r.Map(bump, n)
				bump += n
			case 3:
				v, f := m.Load(addr, size)
				got = fmt.Sprint(v, f, m.Mapped(addr, size))
				data, f := r.load(addr, size)
				var rv uint64
				for j, b := range data {
					rv |= uint64(b) << (8 * j)
				}
				want = fmt.Sprint(rv, f, f == nil)
			case 4:
				got = fmt.Sprint(m.Store(addr, size, op.Val))
				data := make([]byte, size)
				for j := range data {
					data[j] = byte(op.Val >> (8 * j))
				}
				want = fmt.Sprint(r.store(addr, data))
			case 5:
				b, f := m.LoadByte(addr)
				got = fmt.Sprint(b, f)
				data, f := r.load(addr, 1)
				var rb byte
				if f == nil {
					rb = data[0]
				}
				want = fmt.Sprint(rb, f)
			case 6:
				data := make([]byte, op.Len%64)
				for j := range data {
					data[j] = byte(op.Val >> (8 * (j % 8)))
				}
				got = fmt.Sprint(m.WriteBytes(addr, data))
				want = fmt.Sprint(r.store(addr, data))
			case 7:
				s, f := m.CString(addr, int64(op.Len%64))
				got = fmt.Sprint(s, f)
				s, f = r.cstring(addr, int64(op.Len%64))
				want = fmt.Sprint(s, f)
			case 8:
				m.Reset()
				r.Reset()
				bump = stackLo - 3*PageSize
			}
			if got != want {
				t.Logf("op %d %+v at %#x: got %s, want %s", i, op, addr, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRecentPageAfterFirstWrite reads an unwritten page (served by the
// shared zero page, which the written-page cache never holds), writes it,
// and reads the written bytes back, on the same page and on one that
// shares its cache entry.
func TestRecentPageAfterFirstWrite(t *testing.T) {
	m := New()
	const a, b = uint64(0x40_0000), uint64(0x40_0000 + recentPages*PageSize)
	m.Map(a, PageSize)
	m.Map(b, PageSize)
	for _, addr := range []uint64{a, b, a} {
		if v, f := m.Load(addr+8, 8); v != 0 || f != nil {
			t.Fatalf("unwritten %#x: (%d, %v), want (0, nil)", addr, v, f)
		}
		if f := m.Store(addr+8, 8, addr); f != nil {
			t.Fatal(f)
		}
		if v, f := m.Load(addr+8, 8); v != addr || f != nil {
			t.Fatalf("written %#x: (%#x, %v), want (%#x, nil)", addr, v, f, addr)
		}
		m.Reset()
		m.Map(a, PageSize)
		m.Map(b, PageSize)
	}
	if zeroPage != [PageSize]byte{} {
		t.Fatal("a write reached the shared zero page")
	}
}

// TestRecentPageUnmappedAfterReset writes a page, which the written-page
// cache then holds, resets, and checks that the address faults again.
func TestRecentPageUnmappedAfterReset(t *testing.T) {
	m := New()
	const addr = uint64(0x40_0000)
	m.Map(addr, PageSize)
	if f := m.Store(addr, 4, 7); f != nil {
		t.Fatal(f)
	}
	if v, _ := m.Load(addr, 4); v != 7 {
		t.Fatalf("load = %d, want 7", v)
	}
	m.Reset()
	if _, f := m.Load(addr, 4); f == nil {
		t.Error("read of an unmapped address after Reset did not fault")
	}
	if f := m.Store(addr, 4, 7); f == nil {
		t.Error("write to an unmapped address after Reset did not fault")
	}
}
