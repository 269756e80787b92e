package core

import (
	"repro/internal/ir"
	"repro/internal/memdesc"
)

// This file is the managed half of the dynamic type-identity plane: the
// engine stamps memdesc descriptors on allocations (see AllocAuto,
// initGlobals, BoxVarArg), validates checked pointer casts against them, and
// exposes the guest-visible introspection builtins _size_of_object, _type_of,
// and _bounds_of. The native machine mirrors the same descriptors in a
// memdesc.Table (internal/nativevm).

// descFor returns the shared descriptor for a declared C type, memoized by
// spelling so every object of one type shares one *Desc.
func (e *Engine) descFor(ty ir.Type, ctype string) *memdesc.Desc {
	if d, ok := e.descCache[ctype]; ok {
		return d
	}
	d := memdesc.FromIR(ty, ctype)
	if e.descCache == nil {
		e.descCache = make(map[string]*memdesc.Desc, 16)
	}
	e.descCache[ctype] = d
	return d
}

// castDescFor resolves a checked cast's target descriptor. The fast route
// reads the struct type off the instruction's Ty2 pointee; modules that have
// been through a print/parse round trip type every pointer as "ptr", so the
// fallback resolves the CType spelling ("struct foo" / "union foo") against
// the module's struct table. Memoized per engine; nil when unresolvable
// (the cast then behaves as a plain move, exactly like native).
func (e *Engine) castDescFor(in *ir.Instr) *memdesc.Desc {
	ctype := in.CType()
	if d, ok := e.castDesc[ctype]; ok {
		return d
	}
	var d *memdesc.Desc
	if pt, ok := in.Ty2.(*ir.PtrType); ok {
		if st, ok := pt.Elem.(*ir.StructType); ok && st.Size() > 0 {
			d = memdesc.FromIR(st, ctype)
		}
	}
	if d == nil {
		if name, ok := taggedName(ctype); ok {
			if st := e.mod.Structs[name]; st != nil && st.Size() > 0 {
				d = memdesc.FromIR(st, ctype)
			}
		}
	}
	if e.castDesc == nil {
		e.castDesc = make(map[string]*memdesc.Desc, 8)
	}
	e.castDesc[ctype] = d
	return d
}

// taggedName splits "struct foo" / "union foo" into the bare tag (shared
// with the native mirror via memdesc).
func taggedName(ctype string) (string, bool) { return memdesc.TagName(ctype) }

// isTagged reports whether a C type spelling names a struct or union.
func isTagged(ctype string) bool {
	_, ok := taggedName(ctype)
	return ok
}

// CheckCast validates a checked pointer cast (an OpCast carrying a CType)
// against the pointee's effective type. Two confusions are reportable:
//
//   - size: the allocation is too small to hold even one value of the cast
//     target (casting an undersized buffer to a struct pointer), and
//   - identity: the allocation's declared type and the cast target are both
//     named struct/union types and are incompatible (neither is a leading
//     prefix of the other, so this is not the container-of idiom).
//
// A cast of a fresh, type-less heap block at offset 0 *adopts* the target as
// the block's effective type — the malloc-then-cast pattern, mirroring the
// paper's §3.3 inference of heap types. NULL, function pointers, forged
// pointers, and freed objects pass through unchecked: the eventual
// dereference reports the better-classified error.
func (e *Engine) CheckCast(p Pointer, in *ir.Instr) *BugError {
	obj := p.Obj
	if obj == nil || p.IsFunc() || obj.Freed {
		return nil
	}
	desc := e.castDescFor(in)
	if desc == nil || desc.Size <= 0 {
		return nil
	}
	if p.Off < 0 || p.Off+desc.Size > obj.Size() {
		return &BugError{
			Kind: BadCast, Access: Read, Off: p.Off, Size: desc.Size,
			ObjSize: obj.Size(), Mem: obj.Mem, Obj: obj.Name,
			CType: desc.CType, AllocStack: obj.AllocStack,
		}
	}
	if obj.Desc == nil {
		if p.Off == 0 {
			obj.AdoptDesc(desc)
		}
		return nil
	}
	if p.Off == 0 && isTagged(obj.Desc.CType) && isTagged(desc.CType) &&
		obj.Desc.CType != desc.CType && !prefixCompatible(objType(obj), descType(desc)) {
		return &BugError{
			Kind: BadCast, Access: Read, Off: p.Off, Size: desc.Size,
			ObjSize: obj.Size(), Mem: obj.Mem, Obj: obj.Name,
			CType: desc.CType, Stored: obj.Desc.CType, AllocStack: obj.AllocStack,
		}
	}
	return nil
}

func objType(o *Object) ir.Type { return o.Ty }
func descType(d *memdesc.Desc) ir.Type {
	return d.Ty
}

// prefixCompatible reports whether one type is a leading prefix of the
// other by first-member recursion: casting a struct pointer to its first
// member's type (or the reverse, the container-of idiom) is deliberate
// layering, not confusion.
func prefixCompatible(a, b ir.Type) bool {
	if a == nil || b == nil {
		// Unknown layout on one side: stay silent rather than risk a false
		// positive (the managed engine never reports what it cannot prove).
		return true
	}
	for {
		if ir.TypesEqual(a, b) {
			return true
		}
		if sa, ok := a.(*ir.StructType); ok && len(sa.Fields) > 0 {
			if prefixAt(sa.Fields[0].Ty, b) {
				return true
			}
		}
		if sb, ok := b.(*ir.StructType); ok && len(sb.Fields) > 0 {
			b = sb.Fields[0].Ty
			continue
		}
		return false
	}
}

func prefixAt(a, b ir.Type) bool {
	for {
		if ir.TypesEqual(a, b) {
			return true
		}
		sa, ok := a.(*ir.StructType)
		if !ok || len(sa.Fields) == 0 {
			return false
		}
		a = sa.Fields[0].Ty
	}
}

// Introspection builtins (guest-visible; declared in the bundled libc).
// They are pure observers: no heap charge, no fault-plane interaction, no
// step-count dependence on prior allocation outcomes — so a program may call
// them under any FailNth schedule and render identically in every tier.

func biSizeOfObject(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	if p.IsNull() || p.IsFunc() || p.Obj == nil {
		// Includes pointers from denied allocations (malloc returned NULL):
		// the size of no object is well-defined as -1.
		return IntValue(-1), nil
	}
	return IntValue(p.Obj.Size()), nil
}

func biTypeOf(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	name := "unknown"
	switch {
	case p.IsNull():
		name = "null"
	case p.IsFunc():
		name = "function"
	case p.Obj != nil && p.Obj.DescCType() != "":
		name = p.Obj.DescCType()
	}
	return PtrValue(Pointer{Obj: e.internTypeName(name)}), nil
}

func biBoundsOf(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	if p.IsNull() || p.IsFunc() || p.Obj == nil || p.Obj.Freed {
		return IntValue(0), nil
	}
	rem := p.Obj.Size() - p.Off
	if rem < 0 {
		rem = 0
	}
	return IntValue(rem), nil
}

// internTypeName returns the shared managed string object for a type name
// (one object per distinct name, like biGetenv's envObjs). The objects are
// engine metadata: never heap-charged, never leak-checked.
func (e *Engine) internTypeName(s string) *Object {
	if obj, ok := e.typeObjs[s]; ok {
		return obj
	}
	obj := NewObject(int64(len(s)+1), StaticMem, "typeof", e.id())
	copy(obj.Data, s)
	if e.typeObjs == nil {
		e.typeObjs = make(map[string]*Object, 8)
	}
	e.typeObjs[s] = obj
	return obj
}
