// Package memdesc is the shared dynamic-type layer: one descriptor for the
// declared C type of an allocation, used by both execution families. The
// managed engine (internal/core) hangs a *Desc off every Object so typed
// accesses can be checked against the allocation's effective type; the
// native machine (internal/nativevm) keeps a Table mapping address ranges to
// the same descriptors so the introspection builtins and the hardened libc
// have a single source of truth for element kind and size bookkeeping.
//
// The descriptor is deliberately small — a C type name, an element size, a
// scalar kind class, and the byte spans occupied by union storage — because
// that is exactly the information the type-confusion checks need: a
// mismatched pointer cast is a size/name disagreement, a bad union read is a
// kind-class disagreement inside a union span, and a variadic argument
// mismatch is a kind-class disagreement against the promoted argument.
package memdesc

import (
	"sort"

	"repro/internal/ir"
)

// Kind is the scalar kind class of a stored value. The managed model allows
// ints and floats to reinterpret each other's *bytes*; the type plane
// additionally remembers which class was last stored into union storage and
// into variadic cells, so reading the other class back is reportable.
type Kind uint8

const (
	Unknown Kind = iota
	Int
	Float
	Ptr
)

var kindNames = [...]string{Unknown: "unknown", Int: "int", Float: "float", Ptr: "pointer"}

func (k Kind) String() string { return kindNames[k] }

// KindOf classifies an IR type into its scalar kind class. Aggregates and
// nil types classify Unknown (no single class).
func KindOf(ty ir.Type) Kind {
	switch ty.(type) {
	case *ir.IntType:
		return Int
	case *ir.FloatType:
		return Float
	case *ir.PtrType:
		return Ptr
	}
	return Unknown
}

// Range is a half-open byte span [Lo, Hi) of an allocation.
type Range struct {
	Lo, Hi int64
}

// Contains reports whether [lo, hi) lies inside the range.
func (r Range) Contains(lo, hi int64) bool { return lo >= r.Lo && hi <= r.Hi }

// Desc describes the declared (effective) type of an allocation or a cast
// target. Descriptors are immutable after construction and safe to share.
type Desc struct {
	// CType is the declared C type as the front end spelled it, e.g.
	// "struct config" or "double". Empty when the front end had nothing.
	CType string
	// Size is the size in bytes of one element of the declared type.
	Size int64
	// Kind is the scalar kind class of the element type; Unknown for
	// aggregates.
	Kind Kind
	// Unions lists the byte spans of one element that are union storage
	// (all members at one offset). Empty for union-free types.
	Unions []Range
	// Ty is the IR type the descriptor was derived from, when built by
	// FromIR (layout queries like prefix-compatibility need it). May be nil
	// for hand-built descriptors.
	Ty ir.Type
}

// HasUnions reports whether the described type contains union storage.
func (d *Desc) HasUnions() bool { return d != nil && len(d.Unions) > 0 }

// UnionAt returns the union span containing [off, off+size), if any.
// Accesses that straddle a span boundary do not match (they are raw
// reinterpretation, which the relaxed model permits).
func (d *Desc) UnionAt(off, size int64) (Range, bool) {
	if d == nil {
		return Range{}, false
	}
	for _, r := range d.Unions {
		if r.Contains(off, off+size) {
			return r, true
		}
	}
	return Range{}, false
}

// FromIR builds a descriptor for the given IR type with the front end's
// C-level spelling. Union spans are derived structurally: the C front end
// lays a union out as a struct whose fields all sit at offset 0, so any
// struct with two or more fields at offset 0 is union storage.
func FromIR(ty ir.Type, ctype string) *Desc {
	d := &Desc{CType: ctype, Size: ty.Size(), Kind: KindOf(ty), Ty: ty}
	d.Unions = appendUnionRanges(nil, ty, 0)
	return d
}

// IsUnionType reports whether the IR type is (wholly) a union: a struct of
// two or more fields that all sit at offset 0.
func IsUnionType(ty ir.Type) bool {
	st, ok := ty.(*ir.StructType)
	return ok && st.IsUnion()
}

func appendUnionRanges(out []Range, ty ir.Type, base int64) []Range {
	switch t := ty.(type) {
	case *ir.StructType:
		if IsUnionType(t) {
			return append(out, Range{Lo: base, Hi: base + t.Size()})
		}
		for _, f := range t.Fields {
			out = appendUnionRanges(out, f.Ty, base+f.Offset)
		}
	case *ir.ArrayType:
		esz := t.Elem.Size()
		// Only descend when the element actually contains a union; arrays
		// are unrolled span by span so offsets stay exact.
		if len(appendUnionRanges(nil, t.Elem, 0)) > 0 {
			for i := int64(0); i < t.Len; i++ {
				out = appendUnionRanges(out, t.Elem, base+i*esz)
			}
		}
	}
	return out
}

// TagName splits a "struct foo" / "union foo" spelling into the bare tag.
// Spellings that are not tagged aggregates (or are anonymous) report false.
func TagName(ctype string) (string, bool) {
	for _, kw := range []string{"struct ", "union "} {
		if len(ctype) > len(kw) && ctype[:len(kw)] == kw {
			name := ctype[len(kw):]
			if name != "" && name != "<anon>" {
				return name, true
			}
		}
	}
	return "", false
}

// Memo memoizes one engine's descriptors: declared types by C spelling, so
// every object of one type shares one *Desc, and checked-cast targets by
// their instruction's CType. Both execution families keep one per engine;
// the zero value is ready. Engine-thread-only, like the engines.
type Memo struct {
	decl map[string]*Desc
	cast map[string]*Desc
}

// Decl returns the shared descriptor for a declared C type.
func (m *Memo) Decl(ty ir.Type, ctype string) *Desc {
	if d, ok := m.decl[ctype]; ok {
		return d
	}
	d := FromIR(ty, ctype)
	if m.decl == nil {
		m.decl = make(map[string]*Desc, 16)
	}
	m.decl[ctype] = d
	return d
}

// Cast resolves a checked cast's target descriptor. The fast route reads
// the struct type off the instruction's Ty2 pointee; modules that have been
// through a print/parse round trip type every pointer as "ptr", so the
// fallback resolves the CType spelling ("struct foo" / "union foo") against
// the module's struct table. nil when unresolvable (the cast then behaves
// as a plain move).
func (m *Memo) Cast(in *ir.Instr, structs map[string]*ir.StructType) *Desc {
	ctype := in.CType()
	if d, ok := m.cast[ctype]; ok {
		return d
	}
	var d *Desc
	if pt, ok := in.Ty2.(*ir.PtrType); ok {
		if st, ok := pt.Elem.(*ir.StructType); ok && st.Size() > 0 {
			d = FromIR(st, ctype)
		}
	}
	if d == nil {
		if name, ok := TagName(ctype); ok {
			if st := structs[name]; st != nil && st.Size() > 0 {
				d = FromIR(st, ctype)
			}
		}
	}
	if m.cast == nil {
		m.cast = make(map[string]*Desc, 8)
	}
	m.cast[ctype] = d
	return d
}

// span is one Table registration.
type span struct {
	lo, hi int64
	desc   *Desc
}

// Table maps native address ranges to descriptors. The native machine
// registers stack allocations, globals, and adopted heap blocks; the
// introspection builtins and the hardened nlibc look addresses up. The
// table is engine-thread-only (the native machine is single-threaded).
type Table struct {
	spans []span // sorted by lo, non-overlapping
}

// Register records [addr, addr+size) as holding an allocation described by
// d. Overlapping older spans are evicted first (an address range reused by
// the stack belongs to the newest allocation).
func (t *Table) Register(addr, size int64, d *Desc) {
	if t == nil || size <= 0 || d == nil {
		return
	}
	t.RemoveRange(addr, addr+size)
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].lo >= addr })
	t.spans = append(t.spans, span{})
	copy(t.spans[i+1:], t.spans[i:])
	t.spans[i] = span{lo: addr, hi: addr + size, desc: d}
}

// RemoveRange drops every span overlapping [lo, hi) — the native frame
// epilogue uses it to retire a returning function's stack registrations.
func (t *Table) RemoveRange(lo, hi int64) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	out := t.spans[:0]
	for _, s := range t.spans {
		if s.hi <= lo || s.lo >= hi {
			out = append(out, s)
		}
	}
	t.spans = out
}

// Find returns the descriptor and base address of the registered span
// containing addr.
func (t *Table) Find(addr int64) (d *Desc, base int64, size int64, ok bool) {
	if t == nil {
		return nil, 0, 0, false
	}
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].hi > addr })
	if i < len(t.spans) && t.spans[i].lo <= addr {
		s := t.spans[i]
		return s.desc, s.lo, s.hi - s.lo, true
	}
	return nil, 0, 0, false
}

// Len reports the number of live registrations (tests).
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}
