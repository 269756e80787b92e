package core

import (
	"math"
	"strconv"
	"time"

	"repro/internal/fault"
)

// builtinTable maps declared external functions to Go implementations.
// These play the role of the paper's Java methods that "serve the same
// purpose as system calls" (§3.1): allocation, character I/O, variadic
// introspection (count_varargs/get_vararg, Fig. 9), math, and process exit.
// Everything else in libc is written in C and interpreted (internal/libc).
var builtinTable = map[string]Builtin{
	// Heap management (paper §3.3).
	"malloc":  biMalloc,
	"calloc":  biCalloc,
	"realloc": biRealloc,
	"free":    biFree,

	// Front-end intrinsics.
	"__builtin_memcpy": biMemcpyIntrinsic,
	"__builtin_memset": biMemsetIntrinsic,

	// Character I/O.
	"__ss_putchar": biPutchar,
	"__ss_getchar": biGetchar,
	"__ss_fwrite":  biFwrite,

	// Variadic argument introspection (paper Fig. 9).
	"__ss_count_varargs": biCountVarargs,
	"__ss_get_vararg":    biGetVararg,

	// Process control.
	"exit":  biExit,
	"abort": biAbort,

	// Number formatting/parsing helpers used by the C printf/scanf.
	"__ss_ftoa": biFtoa,
	"__ss_atof": biAtof,

	// Environment access (the engine owns the environment strings).
	"__ss_getenv": biGetenv,

	// Introspection primitives (typeident.go): pure observers of the
	// type-identity plane, guest-callable per "Introspection for C".
	"_size_of_object": biSizeOfObject,
	"_type_of":        biTypeOf,
	"_bounds_of":      biBoundsOf,

	// Math (C89 <math.h> double entry points).
	"sin": biMath1(math.Sin), "cos": biMath1(math.Cos), "tan": biMath1(math.Tan),
	"asin": biMath1(math.Asin), "acos": biMath1(math.Acos), "atan": biMath1(math.Atan),
	"exp": biMath1(math.Exp), "log": biMath1(math.Log), "log10": biMath1(math.Log10),
	"sqrt": biMath1(math.Sqrt), "floor": biMath1(math.Floor), "ceil": biMath1(math.Ceil),
	"fabs":  biMath1(math.Abs),
	"atan2": biMath2(math.Atan2), "pow": biMath2(math.Pow), "fmod": biMath2(math.Mod),

	"clock": biClock,
}

// RegisterBuiltin adds (or overrides) a named builtin before engines are
// constructed. The harness uses it for test doubles.
func RegisterBuiltin(name string, fn Builtin) { builtinTable[name] = fn }

func biMalloc(e *Engine, fr *Frame, args []Value) (Value, error) {
	return Value{P: e.AllocHeap(args[0].I, "malloc")}, nil
}

// maxHeapAlloc is the default single-allocation cap; larger requests fail
// like a real malloc returning NULL (the corpus exercises the
// unchecked-malloc pattern). Config.MaxAllocBytes overrides it.
const maxHeapAlloc = 1 << 31

// AllocHeap creates a managed heap object (exposed for builtins/tests).
// Every request is charged through the fault injector: oversized or
// over-budget requests, and allocations the fault plan denies, return the
// null pointer — exactly how guest code observes a real malloc failure
// (malloc(0) follows glibc and returns a unique zero-size object, see
// DESIGN.md §10). The engine call stack at the allocation becomes the
// object's allocation-site backtrace: the malloc call edge is pushed before
// builtin dispatch, so the stack's top frame is the caller at the malloc
// call line. Capturing it builds only the nodes no earlier capture in the
// live call chain has built.
func (e *Engine) AllocHeap(size int64, name string) Pointer {
	if e.mem.ChargeHeap(size) != fault.OK {
		return Pointer{}
	}
	obj := NewObject(size, HeapMem, name, e.id())
	obj.AllocStack = e.calls.Stack()
	e.stats.Allocs++
	e.heap = append(e.heap, obj)
	return Pointer{Obj: obj}
}

func biCalloc(e *Engine, fr *Frame, args []Value) (Value, error) {
	n, sz := args[0].I, args[1].I
	// C11 7.22.3.2: if n*sz overflows, the request cannot be satisfied —
	// return NULL instead of wrapping to a small (exploitable) size.
	if n < 0 || sz < 0 || (sz != 0 && n > math.MaxInt64/sz) {
		e.mem.ChargeHeap(-1) // count the denied attempt (FailNth coordinate)
		return Value{P: Pointer{}}, nil
	}
	return Value{P: e.AllocHeap(n*sz, "calloc")}, nil // already zeroed
}

// biRealloc follows glibc semantics (documented in DESIGN.md §10):
// realloc(NULL, n) is malloc(n); realloc(p, 0) frees p and returns NULL;
// and when the new allocation fails, NULL is returned with the old block
// left untouched — the caller still owns it, per C11 7.22.3.5.
func biRealloc(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	size := args[1].I
	if p.IsNull() {
		return Value{P: e.AllocHeap(size, "realloc")}, nil
	}
	if be := checkFreeable(p); be != nil {
		be.Access = Free
		be.Func = "realloc"
		return Value{}, e.frameErr(fr, be)
	}
	old := p.Obj
	if size == 0 {
		e.mem.Release(old.Size())
		old.FreeWith(e.calls.Stack())
		e.stats.Frees++
		return Value{P: Pointer{}}, nil
	}
	np := e.AllocHeap(size, "realloc")
	if np.IsNull() {
		return Value{P: Pointer{}}, nil // old block stays live and valid
	}
	n := old.Size()
	if size < n {
		n = size
	}
	if n > 0 {
		if be := copyManaged(np.Obj, 0, old, 0, n); be != nil {
			return Value{}, e.frameErr(fr, be)
		}
	}
	e.mem.Release(old.Size())
	old.FreeWith(e.calls.Stack())
	e.stats.Frees++
	return Value{P: np}, nil
}

// checkFreeable implements the paper's Fig. 8: the pointee must be a heap
// object (otherwise InvalidFree — the Java version's ClassCastException),
// the offset must be zero (InvalidFree), and it must not already be freed
// (DoubleFree).
func checkFreeable(p Pointer) *BugError {
	if p.IsFunc() || p.Obj == nil {
		return &BugError{Kind: InvalidFree, Access: Free}
	}
	if p.Obj.Mem != HeapMem {
		return &BugError{Kind: InvalidFree, Access: Free, Mem: p.Obj.Mem, Obj: p.Obj.Name, ObjSize: p.Obj.Size(),
			AllocStack: p.Obj.AllocStack}
	}
	if p.Off != 0 {
		return &BugError{Kind: InvalidFree, Access: Free, Off: p.Off, Mem: p.Obj.Mem, Obj: p.Obj.Name, ObjSize: p.Obj.Size(),
			AllocStack: p.Obj.AllocStack}
	}
	if p.Obj.Freed {
		return &BugError{Kind: DoubleFree, Access: Free, Mem: p.Obj.Mem, Obj: p.Obj.Name, ObjSize: p.Obj.Size(),
			AllocStack: p.Obj.AllocStack, FreeStack: p.Obj.FreeStack}
	}
	return nil
}

func biFree(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	if p.IsNull() {
		return Value{}, nil // free(NULL) is defined to do nothing
	}
	if be := checkFreeable(p); be != nil {
		return Value{}, e.frameErr(fr, be)
	}
	e.mem.Release(p.Obj.Size())
	p.Obj.FreeWith(e.calls.Stack())
	e.stats.Frees++
	return Value{}, nil
}

// copyManaged copies n bytes between managed objects, relocating pointer
// slots and refusing to split a pointer in half.
func copyManaged(dst *Object, doff int64, src *Object, soff, n int64) *BugError {
	if be := src.access(soff, n, Read); be != nil {
		return be
	}
	if be := dst.access(doff, n, Write); be != nil {
		return be
	}
	// Snapshot pointer slots in the source range first (src may alias dst).
	type slotCopy struct {
		rel int64
		p   Pointer
	}
	var slots []slotCopy
	for off, p := range src.Ptrs {
		if off >= soff && off+8 <= soff+n {
			slots = append(slots, slotCopy{rel: off - soff, p: p})
		} else if off+8 > soff && off < soff+n {
			return &BugError{Kind: TypeViolation, Access: Read, Off: off, Size: 8, ObjSize: src.Size(), Mem: src.Mem, Obj: src.Name}
		}
	}
	// Clear pointer slots in the destination range, then copy bytes.
	for off := range dst.Ptrs {
		if off+8 > doff && off < doff+n {
			delete(dst.Ptrs, off)
		}
	}
	copy(dst.Data[doff:doff+n], src.Data[soff:soff+n])
	// A raw byte copy can no longer prove what scalar class union storage
	// holds — degrade the records to "unknown" rather than misreport.
	dst.ClearUnionKinds(doff, doff+n)
	for _, s := range slots {
		if be := dst.StorePtr(doff+s.rel, s.p, Write); be != nil {
			return be
		}
	}
	return nil
}

func biMemcpyIntrinsic(e *Engine, fr *Frame, args []Value) (Value, error) {
	dst, src, n := args[0].P, args[1].P, args[2].I
	if n == 0 {
		return Value{}, nil
	}
	if dst.IsNull() || src.IsNull() {
		return Value{}, e.frameErr(fr, &BugError{Kind: NullDeref, Access: Write, Size: n})
	}
	if be := copyManaged(dst.Obj, dst.Off, src.Obj, src.Off, n); be != nil {
		return Value{}, e.frameErr(fr, be)
	}
	return Value{}, nil
}

func biMemsetIntrinsic(e *Engine, fr *Frame, args []Value) (Value, error) {
	p, c, n := args[0].P, byte(args[1].I), args[2].I
	if n == 0 {
		return Value{}, nil
	}
	if p.IsNull() {
		return Value{}, e.frameErr(fr, &BugError{Kind: NullDeref, Access: Write, Size: n})
	}
	obj := p.Obj
	if obj == nil {
		return Value{}, e.frameErr(fr, &BugError{Kind: TypeViolation, Access: Write, Size: n})
	}
	if be := obj.access(p.Off, n, Write); be != nil {
		return Value{}, e.frameErr(fr, be)
	}
	for off := range obj.Ptrs {
		if off+8 > p.Off && off < p.Off+n {
			delete(obj.Ptrs, off)
		}
	}
	for i := int64(0); i < n; i++ {
		obj.Data[p.Off+i] = c
	}
	obj.ClearUnionKinds(p.Off, p.Off+n)
	return Value{}, nil
}

// frameErr locates a builtin-raised error at its call site. The call edge
// is pushed onto the engine call stack before builtin dispatch, so the
// stack's top frame already names the caller at the call line — the stack
// is recorded as-is, with no synthesized leaf frame (both tiers share this
// path, so their builtin diagnostics match byte for byte).
func (e *Engine) frameErr(fr *Frame, be *BugError) *BugError {
	if f, ok := e.calls.Top(); ok {
		if be.Func == "" {
			be.Func = f.Func
			be.Line = f.Line
		}
		if be.AccessStack.IsEmpty() {
			be.AccessStack = e.calls.Stack()
		}
		return be
	}
	if fr != nil {
		return e.located(be, fr.Fn.Name, 0)
	}
	return be
}

func biPutchar(e *Engine, fr *Frame, args []Value) (Value, error) {
	e.stdout.WriteByte(byte(args[0].I))
	return IntValue(args[0].I & 0xff), nil
}

func biGetchar(e *Engine, fr *Frame, args []Value) (Value, error) {
	b, err := e.stdin.ReadByte()
	if err != nil {
		return IntValue(-1), nil // EOF
	}
	return IntValue(int64(b)), nil
}

// biFwrite writes n bytes from a managed buffer to stdout (fast path for
// puts/%s). The read is fully checked, so printing an unterminated string
// still reports the out-of-bounds read.
func biFwrite(e *Engine, fr *Frame, args []Value) (Value, error) {
	p, n := args[0].P, args[1].I
	if n == 0 {
		return IntValue(0), nil
	}
	if p.IsNull() {
		return Value{}, e.frameErr(fr, &BugError{Kind: NullDeref, Access: Read, Size: n})
	}
	if be := p.Obj.access(p.Off, n, Read); be != nil {
		return Value{}, e.frameErr(fr, be)
	}
	if _, bad := p.Obj.overlapsPtr(p.Off, n); bad {
		return Value{}, e.frameErr(fr, &BugError{Kind: TypeViolation, Access: Read, Off: p.Off, Size: n, Mem: p.Obj.Mem, Obj: p.Obj.Name})
	}
	e.stdout.Write(p.Obj.Data[p.Off : p.Off+n])
	return IntValue(n), nil
}

func biCountVarargs(e *Engine, fr *Frame, args []Value) (Value, error) {
	if fr == nil {
		return IntValue(0), nil
	}
	return IntValue(int64(len(fr.VarArgs))), nil
}

func biGetVararg(e *Engine, fr *Frame, args []Value) (Value, error) {
	i := args[0].I
	if fr == nil || i < 0 || i >= int64(len(fr.VarArgs)) {
		return Value{}, e.frameErr(fr, &BugError{Kind: VarargMisuse, Access: Read, Off: i})
	}
	return fr.VarArgs[i], nil
}

func biExit(e *Engine, fr *Frame, args []Value) (Value, error) {
	return Value{}, &ExitError{Code: int(int32(args[0].I))}
}

func biAbort(e *Engine, fr *Frame, args []Value) (Value, error) {
	return Value{}, &ExitError{Code: 134} // 128+SIGABRT
}

// biFtoa formats a double into a managed buffer: kind 'f', 'e', or 'g' with
// the given precision. The stores are checked, so an undersized buffer is an
// out-of-bounds write, not corruption.
func biFtoa(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	v := args[1].F
	prec := int(args[2].I)
	kind := byte(args[3].I)
	if kind != 'f' && kind != 'e' && kind != 'g' {
		kind = 'f'
	}
	s := strconv.FormatFloat(v, kind, prec, 64)
	if p.IsNull() {
		return Value{}, e.frameErr(fr, &BugError{Kind: NullDeref, Access: Write, Size: int64(len(s) + 1)})
	}
	for i := 0; i < len(s); i++ {
		if be := p.Obj.StoreInt(p.Off+int64(i), 1, int64(s[i]), Write); be != nil {
			return Value{}, e.frameErr(fr, be)
		}
	}
	if be := p.Obj.StoreInt(p.Off+int64(len(s)), 1, 0, Write); be != nil {
		return Value{}, e.frameErr(fr, be)
	}
	return IntValue(int64(len(s))), nil
}

// biAtof parses a double from a managed C string with checked reads.
func biAtof(e *Engine, fr *Frame, args []Value) (Value, error) {
	p := args[0].P
	if p.IsNull() {
		return Value{}, e.frameErr(fr, &BugError{Kind: NullDeref, Access: Read, Size: 1})
	}
	var buf []byte
	for i := int64(0); ; i++ {
		c, be := p.Obj.LoadInt(p.Off+i, 1, Read)
		if be != nil {
			return Value{}, e.frameErr(fr, be)
		}
		if c == 0 || i > 64 {
			break
		}
		buf = append(buf, byte(c))
	}
	f, _ := strconv.ParseFloat(trimFloat(string(buf)), 64)
	return FloatValue(f), nil
}

// trimFloat trims to the longest prefix that parses as a float.
func trimFloat(s string) string {
	for len(s) > 0 {
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			return s
		}
		s = s[:len(s)-1]
	}
	return "0"
}

func biMath1(f func(float64) float64) Builtin {
	return func(e *Engine, fr *Frame, args []Value) (Value, error) {
		return FloatValue(f(args[0].F)), nil
	}
}

func biMath2(f func(a, b float64) float64) Builtin {
	return func(e *Engine, fr *Frame, args []Value) (Value, error) {
		return FloatValue(f(args[0].F, args[1].F)), nil
	}
}

// biGetenv searches the configured environment and returns a managed
// pointer to the value (one shared object per variable).
func biGetenv(e *Engine, fr *Frame, args []Value) (Value, error) {
	name, be := e.StringAt(args[0].P, 4096)
	if be != nil {
		return Value{}, e.frameErr(fr, be)
	}
	if e.envObjs == nil {
		e.envObjs = map[string]*Object{}
	}
	for _, kv := range e.cfg.Env {
		for i := 0; i < len(kv); i++ {
			if kv[i] == '=' {
				if kv[:i] == name {
					obj, ok := e.envObjs[name]
					if !ok {
						val := kv[i+1:]
						obj = NewObject(int64(len(val)+1), StaticMem, "getenv:"+name, e.id())
						copy(obj.Data, val)
						e.envObjs[name] = obj
					}
					return PtrValue(Pointer{Obj: obj}), nil
				}
				break
			}
		}
	}
	return PtrValue(Pointer{}), nil
}

var processStart = time.Now()

func biClock(e *Engine, fr *Frame, args []Value) (Value, error) {
	return IntValue(time.Since(processStart).Microseconds()), nil
}

// StringAt reads a NUL-terminated managed string (diagnostics and builtins).
func (e *Engine) StringAt(p Pointer, max int64) (string, *BugError) {
	if p.IsNull() {
		return "", &BugError{Kind: NullDeref, Access: Read, Size: 1}
	}
	var buf []byte
	for i := int64(0); i < max; i++ {
		c, be := p.Obj.LoadInt(p.Off+i, 1, Read)
		if be != nil {
			return "", be
		}
		if c == 0 {
			break
		}
		buf = append(buf, byte(c))
	}
	return string(buf), nil
}
