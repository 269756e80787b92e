package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/memdesc"
)

// interpret is the tier-0 execution engine: a straightforward block/
// instruction interpreter. Hot functions move to tier 1 (internal/jit).
func (e *Engine) interpret(fr *Frame) (Value, error) {
	f := fr.Fn
	blk := 0
	ii := 0
	for {
		e.steps++
		if e.steps > e.maxSteps {
			return Value{}, &LimitError{What: fmt.Sprintf("%d interpreter steps", e.maxSteps)}
		}
		if ii == 0 && e.gov.Stopped() {
			// Cancellation point: polled once per basic block entered, so a
			// non-terminating loop reacts within one block (tentpole #2).
			return Value{}, e.gov.Err()
		}
		in := &f.Blocks[blk].Instrs[ii]
		switch in.Op {
		case ir.OpAlloca:
			count := int64(1)
			if cnt, ok := in.CountOp(); ok {
				count = e.operand(fr, cnt).I
			}
			size := in.Ty.Size() * count
			p, aerr := e.AllocAuto(fr, size, in.Name(), in.Ty, in.CType(), f.Name, int(in.Line))
			if aerr != nil {
				return Value{}, aerr
			}
			e.TrackAuto(fr, p)
			fr.Regs[in.Dst] = PtrValue(p)

		case ir.OpLoad:
			v, be := e.LoadTyped(e.operand(fr, in.Addr).P, in.Ty)
			if be != nil {
				return Value{}, e.located(be, f.Name, int(in.Line))
			}
			fr.Regs[in.Dst] = v

		case ir.OpStore:
			if be := e.StoreTyped(e.operand(fr, in.Addr).P, in.Ty, e.operand(fr, in.A)); be != nil {
				return Value{}, e.located(be, f.Name, int(in.Line))
			}

		case ir.OpGEP:
			base := e.operand(fr, in.Addr).P
			idx := e.operand(fr, in.A).I
			fr.Regs[in.Dst] = PtrValue(base.Add(in.Stride * idx))

		case ir.OpBin:
			a, b := e.operand(fr, in.A), e.operand(fr, in.B)
			if in.Bin.IsFloatOp() {
				bits := 64
				if ft, ok := in.Ty.(*ir.FloatType); ok {
					bits = ft.Bits
				}
				fr.Regs[in.Dst] = FloatValue(ir.EvalFloatBin(in.Bin, bits, a.F, b.F))
			} else {
				v, ok := ir.EvalIntBin(in.Bin, intBits(in.Ty), a.I, b.I)
				if !ok {
					return Value{}, e.located(&BugError{Kind: DivideByZero}, f.Name, int(in.Line))
				}
				fr.Regs[in.Dst] = IntValue(v)
			}

		case ir.OpCmp:
			a, b := e.operand(fr, in.A), e.operand(fr, in.B)
			var r bool
			switch {
			case in.Pred.IsFloatPred():
				r = ir.EvalFloatCmp(in.Pred, a.F, b.F)
			case ir.IsPtr(in.Ty):
				r = EvalPtrCmp(in.Pred, a.P, b.P)
			default:
				r = ir.EvalIntCmp(in.Pred, intBits(in.Ty), a.I, b.I)
			}
			fr.Regs[in.Dst] = IntValue(b2i(r))

		case ir.OpCast:
			if in.Cast == ir.Bitcast && in.CType() != "" {
				// Checked pointer cast: validate the cast target against the
				// pointee's effective type (adopting one for fresh heap
				// blocks), then move the pointer through unchanged.
				v := e.operand(fr, in.A)
				if be := e.CheckCast(v.P, in); be != nil {
					return Value{}, e.located(be, f.Name, int(in.Line))
				}
				fr.Regs[in.Dst] = v
			} else {
				fr.Regs[in.Dst] = e.evalCast(in, e.operand(fr, in.A))
			}

		case ir.OpSelect:
			if e.operand(fr, in.A).I != 0 {
				fr.Regs[in.Dst] = e.operand(fr, in.B)
			} else {
				fr.Regs[in.Dst] = e.operand(fr, in.Ext.C)
			}

		case ir.OpCall:
			ret, err := e.execCall(fr, in)
			if err != nil {
				return Value{}, err
			}
			if in.Dst >= 0 {
				fr.Regs[in.Dst] = ret
			}

		case ir.OpBr, ir.OpCondBr, ir.OpSwitch:
			// Blk0 is the unconditional target, the true edge and the
			// switch default.
			t := int(in.Blk0)
			switch in.Op {
			case ir.OpCondBr:
				if e.operand(fr, in.A).I == 0 {
					t = int(in.Blk1)
				}
			case ir.OpSwitch:
				v := e.operand(fr, in.A).I
				for _, c := range in.Ext.Cases {
					if c.Val == v {
						t = int(c.Blk)
						break
					}
				}
			}
			// Backward branches are profile points. Each one taken counts
			// toward the function's tier-up threshold, which invoke tests
			// at the next call, so a hot loop promotes its function even
			// when the function is called only a few times. With OSR on, a
			// hot back edge also transfers this live frame into compiled
			// code at the loop header, which finishes the activation.
			// Without a tier-1 compiler, tier-0 pays one boolean test.
			if e.tierOn && t <= blk {
				e.counts[fr.FnIdx]++
				if e.osrOn {
					if cf := e.tryOSR(fr, t); cf != nil {
						e.stats.OSREntries++
						return cf(e, fr)
					}
				}
			}
			blk, ii = t, 0
			continue

		case ir.OpRet:
			if in.A.Kind == ir.OperNone {
				return Value{}, nil
			}
			return e.operand(fr, in.A), nil

		case ir.OpUnreachable:
			// Internal faults are structured, not bare strings, so panic
			// containment and diagnostics share one error path. The message
			// is tier-neutral: the tier-1 compiler emits the identical one.
			return Value{}, &InternalError{
				Msg:   fmt.Sprintf("reached unreachable in %s", f.Name),
				Guest: e.CaptureStack(f.Name, int(in.Line)),
			}

		default:
			return Value{}, &InternalError{
				Msg:   fmt.Sprintf("invalid opcode %d in %s", in.Op, f.Name),
				Guest: e.CaptureStack(f.Name, int(in.Line)),
			}
		}
		ii++
	}
}

// execCall evaluates a call instruction: resolving the callee, boxing
// variadic arguments into managed cells, and dispatching.
func (e *Engine) execCall(fr *Frame, in *ir.Instr) (Value, error) {
	x := in.Ext
	var idx int
	switch x.Callee.Kind {
	case ir.OperFunc:
		idx = e.mod.FuncIndex(x.Callee.Sym)
	default:
		p := e.operand(fr, x.Callee).P
		if p.IsNull() {
			return Value{}, e.located(&BugError{Kind: NullDeref, Access: CallAccess}, fr.Fn.Name, int(in.Line))
		}
		if !p.IsFunc() {
			return Value{}, e.located(&BugError{
				Kind: TypeViolation, Access: CallAccess, Mem: p.Obj.Mem, Obj: p.Obj.Name,
			}, fr.Fn.Name, int(in.Line))
		}
		idx = p.FuncIndex()
	}
	if idx < 0 || idx >= len(e.mod.Funcs) {
		return Value{}, &InternalError{
			Msg:   fmt.Sprintf("call to unknown function in %s", fr.Fn.Name),
			Guest: e.CaptureStack(fr.Fn.Name, int(in.Line)),
		}
	}

	nFixed := min(x.FixedArgs, len(x.Args))
	v := e.PushArgs(len(x.Args))
	for i := 0; i < nFixed; i++ {
		v[i] = e.operand(fr, x.Args[i])
	}
	// The call edge is pushed before variadic boxing so the cells' recorded
	// allocation stacks name this call site, and before builtin dispatch so
	// faults inside malloc/free/memcpy capture the caller. The tier-1
	// compiled call sequence mirrors this ordering exactly.
	e.PushCall(fr.Fn.Name, int(in.Line))
	for i := nFixed; i < len(x.Args); i++ {
		v[i] = PtrValue(e.BoxVarArg(x.Args[i].Ty, e.operand(fr, x.Args[i]), i-nFixed))
	}
	ret, err := e.Invoke(idx, v[:nFixed:nFixed], v[nFixed:], fr)
	e.PopCall()
	e.PopArgs(len(v))
	return ret, err
}

// LoadTyped performs a checked, typed load through a managed pointer.
func (e *Engine) LoadTyped(p Pointer, ty ir.Type) (Value, *BugError) {
	if p.IsNull() {
		return Value{}, &BugError{Kind: NullDeref, Access: Read, Off: p.Off, Size: ty.Size()}
	}
	if p.IsFunc() {
		return Value{}, &BugError{Kind: TypeViolation, Access: Read, Size: ty.Size()}
	}
	switch t := ty.(type) {
	case *ir.FloatType:
		f, be := p.Obj.LoadFloat(p.Off, t.Bits, Read)
		if be != nil {
			return Value{}, be
		}
		// Type-identity checks fire only after a fully valid access, so
		// spatial/temporal errors keep their exact classification.
		if p.Obj.Strict {
			if be := p.Obj.typedReadCheck(p.Off, int64(t.Bits/8), memdesc.Float); be != nil {
				return Value{}, be
			}
		}
		return FloatValue(f), nil
	case *ir.PtrType:
		q, be := p.Obj.LoadPtr(p.Off, Read)
		if be != nil {
			return Value{}, be
		}
		return PtrValue(q), nil
	default:
		v, be := p.Obj.LoadInt(p.Off, ty.Size(), Read)
		if be != nil {
			return Value{}, be
		}
		if p.Obj.Strict {
			if be := p.Obj.typedReadCheck(p.Off, ty.Size(), memdesc.Int); be != nil {
				return Value{}, be
			}
		}
		if it, ok := ty.(*ir.IntType); ok && it.Bits%8 != 0 {
			v = ir.SignExtend(v, it.Bits)
		}
		return IntValue(v), nil
	}
}

// StoreTyped performs a checked, typed store through a managed pointer.
func (e *Engine) StoreTyped(p Pointer, ty ir.Type, v Value) *BugError {
	if p.IsNull() {
		return &BugError{Kind: NullDeref, Access: Write, Off: p.Off, Size: ty.Size()}
	}
	if p.IsFunc() {
		return &BugError{Kind: TypeViolation, Access: Write, Size: ty.Size()}
	}
	switch t := ty.(type) {
	case *ir.FloatType:
		if be := p.Obj.StoreFloat(p.Off, t.Bits, v.F, Write); be != nil {
			return be
		}
		if p.Obj.Strict {
			p.Obj.noteTypedStore(p.Off, int64(t.Bits/8), memdesc.Float)
		}
		return nil
	case *ir.PtrType:
		return p.Obj.StorePtr(p.Off, v.P, Write)
	default:
		if be := p.Obj.StoreInt(p.Off, ty.Size(), v.I, Write); be != nil {
			return be
		}
		if p.Obj.Strict {
			p.Obj.noteTypedStore(p.Off, ty.Size(), memdesc.Int)
		}
		return nil
	}
}

// evalCast applies a cast instruction to a value.
func (e *Engine) evalCast(in *ir.Instr, a Value) Value {
	switch in.Cast {
	case ir.PtrToInt:
		// Pointers have no numeric address in the managed model; expose a
		// stable per-object token so round-tripping and hashing behave.
		return IntValue(PointerToken(a.P))
	case ir.IntToPtr:
		if a.I == 0 {
			return PtrValue(Pointer{})
		}
		// Forging pointers from integers is unsupported (paper §5, tagged
		// pointers). The resulting pointer is poisoned: any dereference is
		// a type violation because it has no object.
		return PtrValue(Pointer{Fn: 0, Obj: nil, Off: a.I})
	case ir.Bitcast:
		return a
	}
	i, fres, isF := ir.EvalCast(in.Cast, intBits(in.Ty), intBits(in.Ty2), a.I, a.F)
	if isF {
		return FloatValue(fres)
	}
	return IntValue(i)
}

// PointerToken derives a deterministic integer from a pointer (used for
// ptrtoint, alignment tricks, and pointer hashing in user code).
func PointerToken(p Pointer) int64 {
	if p.IsNull() {
		return 0
	}
	if p.IsFunc() {
		return int64(p.Fn) << 4
	}
	return p.Obj.ID<<20 + p.Off + 0x10000
}

// EvalPtrCmp compares managed pointers (exported for the tier-1 compiler).
func EvalPtrCmp(pred ir.Pred, a, b Pointer) bool {
	switch pred {
	case ir.Eq:
		return a.Equal(b)
	case ir.Ne:
		return !a.Equal(b)
	}
	ai, ao := a.OrderKey()
	bi, bo := b.OrderKey()
	less := ai < bi || ai == bi && ao < bo
	eq := a.Equal(b)
	switch pred {
	case ir.Ult, ir.Slt:
		return less
	case ir.Ule, ir.Sle:
		return less || eq
	case ir.Ugt, ir.Sgt:
		return !less && !eq
	case ir.Uge, ir.Sge:
		return !less
	}
	return false
}

// operand resolves an instruction operand against a frame.
func (e *Engine) operand(fr *Frame, o ir.Operand) Value {
	switch o.Kind {
	case ir.OperReg:
		return fr.Regs[o.Reg]
	case ir.OperConstInt:
		return IntValue(o.Int)
	case ir.OperConstFloat:
		return FloatValue(o.Flt())
	case ir.OperGlobal:
		return PtrValue(Pointer{Obj: e.globals[o.Sym]})
	case ir.OperFunc:
		return PtrValue(FuncPointer(e.mod.FuncIndex(o.Sym)))
	case ir.OperNull:
		return PtrValue(Pointer{})
	}
	return Value{}
}

// Operand exposes operand resolution to the tier-1 compiler.
func (e *Engine) Operand(fr *Frame, o ir.Operand) Value { return e.operand(fr, o) }

// located fills function/line context into a bug report (see Located).
func (e *Engine) located(be *BugError, fn string, line int) *BugError {
	return e.Located(be, fn, line)
}

func intBits(t ir.Type) int {
	switch v := t.(type) {
	case *ir.IntType:
		return v.Bits
	case *ir.FloatType:
		return v.Bits
	case *ir.PtrType:
		return 64
	case nil:
		return 64
	}
	return 64
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
