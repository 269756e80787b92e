package core

import (
	"encoding/binary"
	"math"
)

// Direct accessors: the tier-2 peak-performance fast path for scalar memory
// traffic. Each method performs the complete safety check inline — liveness
// (not freed / not returned), pointer-slot purity, and the exact bounds test
// — and reports ok=false when *any* condition fails, in which case the
// caller must take the generic LoadTyped/StoreTyped path, which re-executes
// the checks and produces the exact, byte-identical diagnostic the tier-0
// interpreter would.
//
// Nothing is ever elided: the fast path *is* the bounds/liveness check,
// compiled to a handful of compares instead of a type-switch plus per-byte
// loop. An object that has ever held a pointer (len(Ptrs) != 0) is excluded
// wholesale so pointer-integrity checking (paper §3.2) stays exact, as is
// any object that has been freed, so temporal errors keep their use-after-
// free/use-after-return classification and their recorded stacks.
//
// The methods are deliberately tiny so the Go compiler inlines them into the
// tier-1 closures.

// DirectI64 loads an 8-byte little-endian integer when every check passes.
func (o *Object) DirectI64(off int64) (int64, bool) {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+8 > int64(len(o.Data)) {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(o.Data[off:])), true
}

// DirectI32 loads a sign-extended 4-byte integer when every check passes.
func (o *Object) DirectI32(off int64) (int64, bool) {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+4 > int64(len(o.Data)) {
		return 0, false
	}
	return int64(int32(binary.LittleEndian.Uint32(o.Data[off:]))), true
}

// DirectI16 loads a sign-extended 2-byte integer when every check passes.
func (o *Object) DirectI16(off int64) (int64, bool) {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+2 > int64(len(o.Data)) {
		return 0, false
	}
	return int64(int16(binary.LittleEndian.Uint16(o.Data[off:]))), true
}

// DirectI8 loads a sign-extended byte when every check passes.
func (o *Object) DirectI8(off int64) (int64, bool) {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+1 > int64(len(o.Data)) {
		return 0, false
	}
	return int64(int8(o.Data[off])), true
}

// DirectF64 loads an 8-byte float when every check passes.
func (o *Object) DirectF64(off int64) (float64, bool) {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+8 > int64(len(o.Data)) {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(o.Data[off:])), true
}

// DirectF32 loads a 4-byte float when every check passes.
func (o *Object) DirectF32(off int64) (float64, bool) {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+4 > int64(len(o.Data)) {
		return 0, false
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(o.Data[off:]))), true
}

// DirectPutI64 stores an 8-byte integer when every check passes.
func (o *Object) DirectPutI64(off, v int64) bool {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+8 > int64(len(o.Data)) {
		return false
	}
	binary.LittleEndian.PutUint64(o.Data[off:], uint64(v))
	return true
}

// DirectPutI32 stores a 4-byte integer when every check passes.
func (o *Object) DirectPutI32(off, v int64) bool {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+4 > int64(len(o.Data)) {
		return false
	}
	binary.LittleEndian.PutUint32(o.Data[off:], uint32(v))
	return true
}

// DirectPutI16 stores a 2-byte integer when every check passes.
func (o *Object) DirectPutI16(off, v int64) bool {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+2 > int64(len(o.Data)) {
		return false
	}
	binary.LittleEndian.PutUint16(o.Data[off:], uint16(v))
	return true
}

// DirectPutI8 stores one byte when every check passes.
func (o *Object) DirectPutI8(off, v int64) bool {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+1 > int64(len(o.Data)) {
		return false
	}
	o.Data[off] = byte(v)
	return true
}

// DirectPutF64 stores an 8-byte float when every check passes.
func (o *Object) DirectPutF64(off int64, v float64) bool {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+8 > int64(len(o.Data)) {
		return false
	}
	binary.LittleEndian.PutUint64(o.Data[off:], math.Float64bits(v))
	return true
}

// DirectPutF32 stores a 4-byte float when every check passes.
func (o *Object) DirectPutF32(off int64, v float64) bool {
	if o == nil || o.Freed || o.Strict || len(o.Ptrs) != 0 || off < 0 || off+4 > int64(len(o.Data)) {
		return false
	}
	binary.LittleEndian.PutUint32(o.Data[off:], math.Float32bits(float32(v)))
	return true
}
