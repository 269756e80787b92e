// Package ir defines SIR, a typed, register-based intermediate representation
// modeled on LLVM IR. SIR is the contract between the C front end
// (internal/cc), the optimizer (internal/opt), and the execution engines
// (internal/core, internal/nativevm): C functions are lowered to SIR and every
// engine interprets the same SIR, differing only in its memory model.
//
// SIR deliberately retains the C-level properties the paper relies on: memory
// operations are typed, pointer arithmetic is explicit and byte-granular
// (gep), calls carry the number of fixed parameters so that variadic-argument
// accesses are observable, and integer types of unusual widths (e.g. i48) are
// representable.
package ir

import (
	"fmt"
	"strings"
)

// PtrSize is the size of a pointer in bytes on the simulated machine (AMD64).
const PtrSize = 8

// Type is the interface implemented by all SIR types.
type Type interface {
	// Size returns the storage size in bytes, including padding.
	Size() int64
	// Align returns the natural alignment in bytes.
	Align() int64
	// String returns the textual form used by the printer and parser.
	String() string
}

// VoidType is the type of functions that return nothing.
type VoidType struct{}

func (VoidType) Size() int64    { return 0 }
func (VoidType) Align() int64   { return 1 }
func (VoidType) String() string { return "void" }

// IntType is an integer type of an arbitrary bit width. Widths that are not a
// power of two (such as LLVM's i48) are stored in ceil(bits/8) bytes.
type IntType struct {
	Bits int
}

func (t *IntType) Size() int64 { return int64((t.Bits + 7) / 8) }

func (t *IntType) Align() int64 {
	s := t.Size()
	for _, a := range []int64{1, 2, 4, 8} {
		if s <= a {
			return a
		}
	}
	return 8
}

func (t *IntType) String() string {
	switch t.Bits {
	case 1:
		return "i1"
	case 8:
		return "i8"
	case 16:
		return "i16"
	case 32:
		return "i32"
	case 64:
		return "i64"
	}
	return fmt.Sprintf("i%d", t.Bits)
}

// FloatType is a binary floating-point type (32 or 64 bits).
type FloatType struct {
	Bits int
}

func (t *FloatType) Size() int64  { return int64(t.Bits / 8) }
func (t *FloatType) Align() int64 { return t.Size() }
func (t *FloatType) String() string {
	switch t.Bits {
	case 32:
		return "f32"
	case 64:
		return "f64"
	}
	return ""
}

// PtrType is a pointer. Elem records the pointee type for diagnostics and for
// typed loads through the pointer; it does not affect size or layout.
type PtrType struct {
	Elem Type
}

func (t *PtrType) Size() int64    { return PtrSize }
func (t *PtrType) Align() int64   { return PtrSize }
func (t *PtrType) String() string { return "ptr" }

// ArrayType is a fixed-length array.
type ArrayType struct {
	Elem Type
	Len  int64
}

func (t *ArrayType) Size() int64    { return t.Elem.Size() * t.Len }
func (t *ArrayType) Align() int64   { return t.Elem.Align() }
func (t *ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem) }

// Field is a single member of a struct type.
type Field struct {
	Name   string
	Ty     Type
	Offset int64 // byte offset from the start of the struct, set by Layout
}

// StructType is a C struct. Call Layout (or NewStruct) before using Size,
// Align, or Offset.
type StructType struct {
	Name   string // tag name; may be empty for anonymous structs
	Fields []Field

	size  int64
	align int64
	laid  bool
}

// NewStruct builds a struct type and computes its layout.
func NewStruct(name string, fields []Field) *StructType {
	t := &StructType{Name: name, Fields: fields}
	t.Layout()
	return t
}

// Layout assigns field offsets using natural alignment and sets the total
// size, mirroring the System V AMD64 rules the paper's platform uses.
func (t *StructType) Layout() {
	var off, maxAlign int64 = 0, 1
	for i := range t.Fields {
		a := t.Fields[i].Ty.Align()
		if a > maxAlign {
			maxAlign = a
		}
		off = alignUp(off, a)
		t.Fields[i].Offset = off
		off += t.Fields[i].Ty.Size()
	}
	t.size = alignUp(off, maxAlign)
	t.align = maxAlign
	t.laid = true
}

// SetLayout overrides the computed layout. The C front end uses this for
// unions, whose fields all live at offset 0.
func (t *StructType) SetLayout(size, align int64) {
	t.size, t.align, t.laid = size, align, true
}

func (t *StructType) Size() int64 {
	if !t.laid {
		t.Layout()
	}
	return t.size
}

func (t *StructType) Align() int64 {
	if !t.laid {
		t.Layout()
	}
	return t.align
}

func (t *StructType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	var b strings.Builder
	b.WriteString("{ ")
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Ty.String())
	}
	b.WriteString(" }")
	return b.String()
}

// IsUnion reports whether the struct is C-union storage: two or more
// fields that all sit at offset 0 (the layout the C front end gives
// unions via SetLayout).
func (t *StructType) IsUnion() bool {
	if len(t.Fields) < 2 {
		return false
	}
	for _, f := range t.Fields {
		if f.Offset != 0 {
			return false
		}
	}
	return true
}

// FieldAt returns the index of the field containing the given byte offset,
// or -1 if the offset is outside the struct.
func (t *StructType) FieldAt(off int64) int {
	for i := len(t.Fields) - 1; i >= 0; i-- {
		if off >= t.Fields[i].Offset {
			if off < t.Fields[i].Offset+t.Fields[i].Ty.Size() {
				return i
			}
			return -1
		}
	}
	return -1
}

// FuncType is a function signature.
type FuncType struct {
	Ret      Type
	Params   []Type
	Variadic bool
}

func (t *FuncType) Size() int64  { return 0 }
func (t *FuncType) Align() int64 { return 1 }

func (t *FuncType) String() string {
	var b strings.Builder
	b.WriteString("fn(")
	for i, p := range t.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if t.Variadic {
		if len(t.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(") ")
	b.WriteString(t.Ret.String())
	return b.String()
}

// Singleton types shared across the repository. Types are compared with
// TypesEqual, never with ==, but reusing singletons keeps modules small.
var (
	Void = VoidType{}
	I1   = &IntType{Bits: 1}
	I8   = &IntType{Bits: 8}
	I16  = &IntType{Bits: 16}
	I32  = &IntType{Bits: 32}
	I48  = &IntType{Bits: 48}
	I64  = &IntType{Bits: 64}
	F32  = &FloatType{Bits: 32}
	F64  = &FloatType{Bits: 64}
)

// Ptr returns a pointer type to elem.
func Ptr(elem Type) *PtrType { return &PtrType{Elem: elem} }

// BytePtr is the generic pointer type used where the pointee is unknown.
var BytePtr = Ptr(I8)

// IntN returns the shared integer type of the given width when one exists,
// or a fresh one otherwise.
func IntN(bits int) *IntType {
	switch bits {
	case 1:
		return I1
	case 8:
		return I8
	case 16:
		return I16
	case 32:
		return I32
	case 48:
		return I48
	case 64:
		return I64
	}
	return &IntType{Bits: bits}
}

// TypesEqual reports structural type equality. Named structs compare by name;
// anonymous structs compare by field types.
func TypesEqual(a, b Type) bool {
	switch x := a.(type) {
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case *IntType:
		y, ok := b.(*IntType)
		return ok && x.Bits == y.Bits
	case *FloatType:
		y, ok := b.(*FloatType)
		return ok && x.Bits == y.Bits
	case *PtrType:
		_, ok := b.(*PtrType)
		return ok
	case *ArrayType:
		y, ok := b.(*ArrayType)
		return ok && x.Len == y.Len && TypesEqual(x.Elem, y.Elem)
	case *StructType:
		y, ok := b.(*StructType)
		if !ok {
			return false
		}
		if x.Name != "" || y.Name != "" {
			return x.Name == y.Name
		}
		if len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if !TypesEqual(x.Fields[i].Ty, y.Fields[i].Ty) {
				return false
			}
		}
		return true
	case *FuncType:
		y, ok := b.(*FuncType)
		if !ok || x.Variadic != y.Variadic || len(x.Params) != len(y.Params) {
			return false
		}
		if !TypesEqual(x.Ret, y.Ret) {
			return false
		}
		for i := range x.Params {
			if !TypesEqual(x.Params[i], y.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// IsPtr reports whether t is a pointer type.
func IsPtr(t Type) bool { _, ok := t.(*PtrType); return ok }

// IsAggregate reports whether t is an array or struct type.
func IsAggregate(t Type) bool {
	switch t.(type) {
	case *ArrayType, *StructType:
		return true
	}
	return false
}

func alignUp(v, a int64) int64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
