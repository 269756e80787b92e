package cc

import (
	"fmt"

	"repro/internal/ir"
)

// CKind classifies a C type.
type CKind int

const (
	CVoid CKind = iota
	CInt        // all integer types, including char, enum, and _Bool
	CFloat
	CPtr
	CArray
	CStruct
	CFunc
)

// CType is a C type. Values are immutable once constructed.
type CType struct {
	Kind     CKind
	Bits     int  // CInt: 8/16/32/64; CFloat: 32/64
	Unsigned bool // CInt only
	Elem     *CType
	Len      int64 // CArray; -1 when the length is not yet known
	Struct   *CStructInfo
	Fn       *CFuncInfo
}

// CStructInfo describes a struct (or union, laid out as overlapping fields).
type CStructInfo struct {
	Name     string
	Fields   []CField
	IsUnion  bool
	Complete bool
	irType   *ir.StructType
	// frozen marks a struct owned by a shared Prefix: laid out if complete,
	// and never written again.
	frozen bool
}

// completeMember reports whether a struct member may have type t: not a
// struct that is incomplete, nor an array of one (C11 6.7.2.1p3). A
// struct being defined is incomplete until its closing brace, so no struct
// contains itself.
func (t *CType) completeMember() bool {
	for t.Kind == CArray {
		t = t.Elem
	}
	return t.Kind != CStruct || t.Struct.Complete
}

// CField is one struct member.
type CField struct {
	Name string
	Ty   *CType
}

// CFuncInfo is a function signature.
type CFuncInfo struct {
	Ret      *CType
	Params   []*CType
	Names    []string
	Variadic bool
	// Unprototyped marks a declarator written with an empty parameter list,
	// `f()`: unlike `f(void)`, it says nothing about the parameters.
	Unprototyped bool
}

// Shared scalar types.
var (
	tyVoid    = &CType{Kind: CVoid}
	tyChar    = &CType{Kind: CInt, Bits: 8}
	tyUChar   = &CType{Kind: CInt, Bits: 8, Unsigned: true}
	tyShort   = &CType{Kind: CInt, Bits: 16}
	tyUShort  = &CType{Kind: CInt, Bits: 16, Unsigned: true}
	tyInt     = &CType{Kind: CInt, Bits: 32}
	tyUInt    = &CType{Kind: CInt, Bits: 32, Unsigned: true}
	tyLong    = &CType{Kind: CInt, Bits: 64}
	tyULong   = &CType{Kind: CInt, Bits: 64, Unsigned: true}
	tyFloat   = &CType{Kind: CFloat, Bits: 32}
	tyDouble  = &CType{Kind: CFloat, Bits: 64}
	tyVoidPtr = &CType{Kind: CPtr, Elem: tyVoid}
	tyCharPtr = &CType{Kind: CPtr, Elem: tyChar}
)

func ptrTo(t *CType) *CType { return &CType{Kind: CPtr, Elem: t} }

func arrayOf(t *CType, n int64) *CType { return &CType{Kind: CArray, Elem: t, Len: n} }

// Size returns the storage size in bytes.
func (t *CType) Size() int64 {
	switch t.Kind {
	case CVoid:
		return 1 // GNU-compatible sizeof(void); pointer arithmetic on void* uses 1
	case CInt, CFloat:
		return int64(t.Bits / 8)
	case CPtr:
		return ir.PtrSize
	case CArray:
		if t.Len < 0 {
			return 0
		}
		return t.Elem.Size() * t.Len
	case CStruct:
		return t.IR().Size()
	case CFunc:
		return ir.PtrSize
	}
	return 0
}

// IsInteger reports whether t is an integer type.
func (t *CType) IsInteger() bool { return t.Kind == CInt }

// IsArithmetic reports whether t is an integer or floating type.
func (t *CType) IsArithmetic() bool { return t.Kind == CInt || t.Kind == CFloat }

// Decay converts array and function types to pointers, as C does in
// expression contexts.
func (t *CType) Decay() *CType {
	switch t.Kind {
	case CArray:
		return ptrTo(t.Elem)
	case CFunc:
		return ptrTo(t)
	}
	return t
}

// IR lowers the C type to its SIR representation.
func (t *CType) IR() ir.Type {
	switch t.Kind {
	case CVoid:
		return ir.Void
	case CInt:
		return ir.IntN(t.Bits)
	case CFloat:
		if t.Bits == 32 {
			return ir.F32
		}
		return ir.F64
	case CPtr, CFunc:
		return ir.BytePtr
	case CArray:
		n := t.Len
		if n < 0 {
			n = 0
		}
		return &ir.ArrayType{Elem: t.Elem.IR(), Len: n}
	case CStruct:
		return t.Struct.ir()
	}
	panic("cc: unhandled type kind")
}

func (s *CStructInfo) ir() *ir.StructType {
	if s.irType != nil {
		return s.irType
	}
	st := &ir.StructType{Name: s.Name}
	if !s.frozen { // a frozen struct is incomplete here: lay it out uncached
		s.irType = st
	}
	var fields []ir.Field
	for _, f := range s.Fields {
		fields = append(fields, ir.Field{Name: f.Name, Ty: f.Ty.IR()})
	}
	st.Fields = fields
	if s.IsUnion {
		// Unions overlay every field at offset 0; size is the max field size.
		var size, align int64 = 0, 1
		for i := range st.Fields {
			st.Fields[i].Offset = 0
			if s := st.Fields[i].Ty.Size(); s > size {
				size = s
			}
			if a := st.Fields[i].Ty.Align(); a > align {
				align = a
			}
		}
		st.SetLayout(alignUp(size, align), align)
	} else {
		st.Layout()
	}
	return st
}

// IR returns the struct's lowered type (for use by StructType.Size etc.).
func (t *CType) irStruct() *ir.StructType { return t.Struct.ir() }

// FieldIndex returns the index and type of the named member, or -1.
func (t *CType) FieldIndex(name string) (int, *CType) {
	if t.Kind != CStruct {
		return -1, nil
	}
	for i, f := range t.Struct.Fields {
		if f.Name == name {
			return i, f.Ty
		}
	}
	return -1, nil
}

// FieldOffset returns the byte offset of field i.
func (t *CType) FieldOffset(i int) int64 {
	return t.Struct.ir().Fields[i].Offset
}

// sameType reports whether a and b are the same type: structurally for
// everything but structs, which are the same only as the same declaration.
func sameType(a, b *CType) bool {
	if a == b {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case CInt:
		return a.Bits == b.Bits && a.Unsigned == b.Unsigned
	case CFloat:
		return a.Bits == b.Bits
	case CPtr:
		return sameType(a.Elem, b.Elem)
	case CArray:
		return a.Len == b.Len && sameType(a.Elem, b.Elem)
	case CStruct:
		return a.Struct == b.Struct
	case CFunc:
		return sameSig(a.Fn, b.Fn)
	}
	return true
}

// sameSig reports whether two function signatures are the same type.
func sameSig(a, b *CFuncInfo) bool {
	if a.Variadic != b.Variadic || len(a.Params) != len(b.Params) || !sameType(a.Ret, b.Ret) {
		return false
	}
	for i := range a.Params {
		if !sameType(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}

// Compatible reports assignment compatibility in the relaxed sense this
// front end enforces (C's real rules plus implicit pointer conversions,
// which the corpus programs rely on).
func Compatible(dst, src *CType) bool {
	dst, src = dst.Decay(), src.Decay()
	if dst.Kind == CVoid || src.Kind == CVoid {
		return dst.Kind == src.Kind
	}
	if dst.IsArithmetic() && src.IsArithmetic() {
		return true
	}
	if dst.Kind == CPtr && src.Kind == CPtr {
		return true // warnings, not errors, in practice
	}
	if dst.Kind == CPtr && src.IsInteger() {
		return true // null constants and integer/pointer abuse
	}
	if dst.IsInteger() && src.Kind == CPtr {
		return true
	}
	return false
}

func (t *CType) String() string {
	switch t.Kind {
	case CVoid:
		return "void"
	case CInt:
		u := ""
		if t.Unsigned {
			u = "unsigned "
		}
		switch t.Bits {
		case 8:
			return u + "char"
		case 16:
			return u + "short"
		case 32:
			return u + "int"
		case 64:
			return u + "long"
		}
		return fmt.Sprintf("%sint%d", u, t.Bits)
	case CFloat:
		if t.Bits == 32 {
			return "float"
		}
		return "double"
	case CPtr:
		return t.Elem.String() + "*"
	case CArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case CStruct:
		kind := "struct"
		if t.Struct.IsUnion {
			kind = "union"
		}
		if t.Struct.Name != "" {
			return kind + " " + t.Struct.Name
		}
		return kind + " <anon>"
	case CFunc:
		return "function"
	}
	return "?"
}

func alignUp(v, a int64) int64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
