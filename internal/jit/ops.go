package jit

import (
	"math"

	"repro/internal/core"
	"repro/internal/ir"
)

// compileBin specializes an arithmetic instruction: the operator, width, and
// — when the operands are registers or constants — the exact operand reads
// are baked into one closure, so the hot path is a single Go function with
// no dispatch and no getter indirection. Division keeps its zero check (a
// trap the paper's compiler must preserve: safe semantics).
func (c *Compiler) compileBin(e *core.Engine, in *ir.Instr, fname string, line int) (step, error) {
	dst := in.Dst
	if in.Bin.IsFloatOp() {
		return c.compileFloatBin(e, in)
	}

	bits := intBits(in.Ty)
	shift := uint(64 - bits)
	// Register-register and register-constant fast forms for the common
	// operators (profiling showed two getter closure calls per ALU op).
	if in.A.Kind == ir.OperReg {
		ra := in.A.Reg
		if in.B.Kind == ir.OperReg {
			if st := intBinRR(in.Bin, dst, ra, in.B.Reg, shift); st != nil {
				return st, nil
			}
		} else if in.B.Kind == ir.OperConstInt {
			if st := intBinRC(in.Bin, dst, ra, in.B.Int, shift); st != nil {
				return st, nil
			}
		}
	}

	getA, err := c.compileOperand(e, in.A)
	if err != nil {
		return nil, err
	}
	getB, err := c.compileOperand(e, in.B)
	if err != nil {
		return nil, err
	}
	norm := func(v int64) int64 { return v }
	if bits < 64 {
		norm = func(v int64) int64 { return v << shift >> shift }
	}
	switch in.Bin {
	case ir.Add:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(norm(getA(e, fr).I + getB(e, fr).I))
			return nil
		}, nil
	case ir.Sub:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(norm(getA(e, fr).I - getB(e, fr).I))
			return nil
		}, nil
	case ir.Mul:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(norm(getA(e, fr).I * getB(e, fr).I))
			return nil
		}, nil
	case ir.And:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(getA(e, fr).I & getB(e, fr).I)
			return nil
		}, nil
	case ir.Or:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(getA(e, fr).I | getB(e, fr).I)
			return nil
		}, nil
	case ir.Xor:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(getA(e, fr).I ^ getB(e, fr).I)
			return nil
		}, nil
	case ir.Shl:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(norm(getA(e, fr).I << (uint64(getB(e, fr).I) & 63)))
			return nil
		}, nil
	case ir.AShr:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(getA(e, fr).I >> (uint64(getB(e, fr).I) & 63))
			return nil
		}, nil
	}
	// The less common operators (division, remainders, logical shift) fall
	// back to the shared ALU, keeping the zero-divide check.
	op := in.Bin
	b := bits
	return func(e *core.Engine, fr *core.Frame) error {
		v, ok := ir.EvalIntBin(op, b, getA(e, fr).I, getB(e, fr).I)
		if !ok {
			return e.Located(&core.BugError{Kind: core.DivideByZero}, fname, line)
		}
		fr.Regs[dst] = core.IntValue(v)
		return nil
	}, nil
}

// intBinRR builds a direct register-register closure, or nil when the
// operator has no fast form. Values are canonically sign-extended, so the
// narrowing normalization is a pair of baked shifts (zero shifts at i64).
func intBinRR(op ir.BinOp, dst, ra, rb int32, shift uint) step {
	switch op {
	case ir.Add:
		if shift == 0 {
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.IntValue(fr.Regs[ra].I + fr.Regs[rb].I)
				return nil
			}
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I + fr.Regs[rb].I) << shift >> shift)
			return nil
		}
	case ir.Sub:
		if shift == 0 {
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.IntValue(fr.Regs[ra].I - fr.Regs[rb].I)
				return nil
			}
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I - fr.Regs[rb].I) << shift >> shift)
			return nil
		}
	case ir.Mul:
		if shift == 0 {
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.IntValue(fr.Regs[ra].I * fr.Regs[rb].I)
				return nil
			}
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I * fr.Regs[rb].I) << shift >> shift)
			return nil
		}
	case ir.And:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I & fr.Regs[rb].I)
			return nil
		}
	case ir.Or:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I | fr.Regs[rb].I)
			return nil
		}
	case ir.Xor:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I ^ fr.Regs[rb].I)
			return nil
		}
	case ir.Shl:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I << (uint64(fr.Regs[rb].I) & 63)) << shift >> shift)
			return nil
		}
	case ir.AShr:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I >> (uint64(fr.Regs[rb].I) & 63))
			return nil
		}
	}
	return nil
}

// intBinRC builds a direct register-constant closure (loop increments,
// masks, strides), or nil when the operator has no fast form.
func intBinRC(op ir.BinOp, dst, ra int32, bv int64, shift uint) step {
	switch op {
	case ir.Add:
		if shift == 0 {
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.IntValue(fr.Regs[ra].I + bv)
				return nil
			}
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I + bv) << shift >> shift)
			return nil
		}
	case ir.Sub:
		if shift == 0 {
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.IntValue(fr.Regs[ra].I - bv)
				return nil
			}
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I - bv) << shift >> shift)
			return nil
		}
	case ir.Mul:
		if shift == 0 {
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.IntValue(fr.Regs[ra].I * bv)
				return nil
			}
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I * bv) << shift >> shift)
			return nil
		}
	case ir.And:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I & bv)
			return nil
		}
	case ir.Or:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I | bv)
			return nil
		}
	case ir.Xor:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I ^ bv)
			return nil
		}
	case ir.Shl:
		s := uint64(bv) & 63
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue((fr.Regs[ra].I << s) << shift >> shift)
			return nil
		}
	case ir.AShr:
		s := uint64(bv) & 63
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(fr.Regs[ra].I >> s)
			return nil
		}
	}
	return nil
}

func (c *Compiler) compileFloatBin(e *core.Engine, in *ir.Instr) (step, error) {
	dst := in.Dst
	bits := 64
	if ft, ok := in.Ty.(*ir.FloatType); ok {
		bits = ft.Bits
	}
	// Double-precision register-register forms: the inner loops of the
	// numeric benchgame programs (nbody, spectralnorm, mandelbrot).
	if bits == 64 && in.A.Kind == ir.OperReg && in.B.Kind == ir.OperReg {
		ra, rb := in.A.Reg, in.B.Reg
		switch in.Bin {
		case ir.FAdd:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F + fr.Regs[rb].F)
				return nil
			}, nil
		case ir.FSub:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F - fr.Regs[rb].F)
				return nil
			}, nil
		case ir.FMul:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F * fr.Regs[rb].F)
				return nil
			}, nil
		case ir.FDiv:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F / fr.Regs[rb].F)
				return nil
			}, nil
		}
	}
	if bits == 64 && in.A.Kind == ir.OperReg && in.B.Kind == ir.OperConstFloat {
		ra, bv := in.A.Reg, in.B.Flt()
		switch in.Bin {
		case ir.FAdd:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F + bv)
				return nil
			}, nil
		case ir.FSub:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F - bv)
				return nil
			}, nil
		case ir.FMul:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F * bv)
				return nil
			}, nil
		case ir.FDiv:
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(fr.Regs[ra].F / bv)
				return nil
			}, nil
		}
	}
	getA, err := c.compileOperand(e, in.A)
	if err != nil {
		return nil, err
	}
	getB, err := c.compileOperand(e, in.B)
	if err != nil {
		return nil, err
	}
	var fop func(a, b float64) float64
	switch in.Bin {
	case ir.FAdd:
		fop = func(a, b float64) float64 { return a + b }
	case ir.FSub:
		fop = func(a, b float64) float64 { return a - b }
	case ir.FMul:
		fop = func(a, b float64) float64 { return a * b }
	case ir.FDiv:
		fop = func(a, b float64) float64 { return a / b }
	case ir.FRem:
		fop = math.Mod
	}
	if bits == 32 {
		inner := fop
		fop = func(a, b float64) float64 { return float64(float32(inner(a, b))) }
	}
	return func(e *core.Engine, fr *core.Frame) error {
		fr.Regs[dst] = core.FloatValue(fop(getA(e, fr).F, getB(e, fr).F))
		return nil
	}, nil
}

func (c *Compiler) compileCmp(e *core.Engine, in *ir.Instr) (step, error) {
	getA, err := c.compileOperand(e, in.A)
	if err != nil {
		return nil, err
	}
	getB, err := c.compileOperand(e, in.B)
	if err != nil {
		return nil, err
	}
	dst := in.Dst
	switch {
	case in.Pred.IsFloatPred():
		pred := in.Pred
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(ir.EvalFloatCmp(pred, getA(e, fr).F, getB(e, fr).F)))
			return nil
		}, nil
	case ir.IsPtr(in.Ty):
		pred := in.Pred
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(core.EvalPtrCmp(pred, getA(e, fr).P, getB(e, fr).P)))
			return nil
		}, nil
	}
	bits := intBits(in.Ty)
	switch in.Pred {
	case ir.Eq:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(getA(e, fr).I == getB(e, fr).I))
			return nil
		}, nil
	case ir.Ne:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(getA(e, fr).I != getB(e, fr).I))
			return nil
		}, nil
	case ir.Slt:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(getA(e, fr).I < getB(e, fr).I))
			return nil
		}, nil
	case ir.Sle:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(getA(e, fr).I <= getB(e, fr).I))
			return nil
		}, nil
	case ir.Sgt:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(getA(e, fr).I > getB(e, fr).I))
			return nil
		}, nil
	case ir.Sge:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(b2i(getA(e, fr).I >= getB(e, fr).I))
			return nil
		}, nil
	}
	pred := in.Pred
	return func(e *core.Engine, fr *core.Frame) error {
		fr.Regs[dst] = core.IntValue(b2i(ir.EvalIntCmp(pred, bits, getA(e, fr).I, getB(e, fr).I)))
		return nil
	}, nil
}

// cmpBool evaluates a comparison to a Go bool (used by the fused
// cmp+condbr terminator, which never materializes the i1).
type cmpBool func(e *core.Engine, fr *core.Frame) bool

// compileCmpBool specializes the register-register and register-constant
// signed forms (the shapes loop exit tests take); everything else reads
// through operand getters.
func (c *Compiler) compileCmpBool(e *core.Engine, in *ir.Instr) (cmpBool, error) {
	if !in.Pred.IsFloatPred() && !ir.IsPtr(in.Ty) && in.A.Kind == ir.OperReg {
		ra := in.A.Reg
		if in.B.Kind == ir.OperReg {
			rb := in.B.Reg
			switch in.Pred {
			case ir.Eq:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I == fr.Regs[rb].I }, nil
			case ir.Ne:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I != fr.Regs[rb].I }, nil
			case ir.Slt:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I < fr.Regs[rb].I }, nil
			case ir.Sle:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I <= fr.Regs[rb].I }, nil
			case ir.Sgt:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I > fr.Regs[rb].I }, nil
			case ir.Sge:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I >= fr.Regs[rb].I }, nil
			}
		} else if in.B.Kind == ir.OperConstInt {
			bv := in.B.Int
			switch in.Pred {
			case ir.Eq:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I == bv }, nil
			case ir.Ne:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I != bv }, nil
			case ir.Slt:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I < bv }, nil
			case ir.Sle:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I <= bv }, nil
			case ir.Sgt:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I > bv }, nil
			case ir.Sge:
				return func(e *core.Engine, fr *core.Frame) bool { return fr.Regs[ra].I >= bv }, nil
			}
		}
	}
	getA, err := c.compileOperand(e, in.A)
	if err != nil {
		return nil, err
	}
	getB, err := c.compileOperand(e, in.B)
	if err != nil {
		return nil, err
	}
	switch {
	case in.Pred.IsFloatPred():
		pred := in.Pred
		return func(e *core.Engine, fr *core.Frame) bool {
			return ir.EvalFloatCmp(pred, getA(e, fr).F, getB(e, fr).F)
		}, nil
	case ir.IsPtr(in.Ty):
		pred := in.Pred
		return func(e *core.Engine, fr *core.Frame) bool {
			return core.EvalPtrCmp(pred, getA(e, fr).P, getB(e, fr).P)
		}, nil
	}
	pred := in.Pred
	bits := intBits(in.Ty)
	return func(e *core.Engine, fr *core.Frame) bool {
		return ir.EvalIntCmp(pred, bits, getA(e, fr).I, getB(e, fr).I)
	}, nil
}

// compileFusedCmpBr lowers a cmp whose only reader is the block's condbr
// into the terminator itself: one closure evaluates the comparison and
// branches, skipping the i1 materialization and a dispatch. Legal because
// neither instruction can fault; the cmp's fuel weight moves onto the
// terminator (same block total).
func (c *Compiler) compileFusedCmpBr(e *core.Engine, cmp, br *ir.Instr) (term, error) {
	cond, err := c.compileCmpBool(e, cmp)
	if err != nil {
		return nil, err
	}
	t, f := int(br.Blk0), int(br.Blk1)
	return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
		if cond(e, fr) {
			return t, core.Value{}, false, nil
		}
		return f, core.Value{}, false, nil
	}, nil
}

func (c *Compiler) compileCast(e *core.Engine, in *ir.Instr, fname string, line int) (step, error) {
	getA, err := c.compileOperand(e, in.A)
	if err != nil {
		return nil, err
	}
	dst := in.Dst
	switch in.Cast {
	case ir.Bitcast:
		if in.CType() != "" {
			// Checked pointer cast: validate the target type against the
			// pointee's effective type via the shared interpreter check, so
			// both tiers produce the byte-identical diagnostic.
			inst := in
			return func(e *core.Engine, fr *core.Frame) error {
				v := getA(e, fr)
				if be := e.CheckCast(v.P, inst); be != nil {
					return e.Located(be, fname, line)
				}
				fr.Regs[dst] = v
				return nil
			}, nil
		}
		if in.A.Kind == ir.OperReg {
			src := in.A.Reg
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = fr.Regs[src]
				return nil
			}, nil
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = getA(e, fr)
			return nil
		}, nil
	case ir.PtrToInt:
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.IntValue(core.PointerToken(getA(e, fr).P))
			return nil
		}, nil
	case ir.IntToPtr:
		return func(e *core.Engine, fr *core.Frame) error {
			v := getA(e, fr).I
			if v == 0 {
				fr.Regs[dst] = core.PtrValue(core.Pointer{})
			} else {
				fr.Regs[dst] = core.PtrValue(core.Pointer{Off: v})
			}
			return nil
		}, nil
	case ir.SExt:
		if in.A.Kind == ir.OperReg {
			src := in.A.Reg
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = fr.Regs[src] // values are already sign-extended
				return nil
			}, nil
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = getA(e, fr)
			return nil
		}, nil
	case ir.SIToFP:
		to := intBits(in.Ty2)
		if in.A.Kind == ir.OperReg && to == 64 {
			src := in.A.Reg
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.FloatValue(float64(fr.Regs[src].I))
				return nil
			}, nil
		}
	}
	op := in.Cast
	from, to := intBits(in.Ty), intBits(in.Ty2)
	return func(e *core.Engine, fr *core.Frame) error {
		a := getA(e, fr)
		i, f, isF := ir.EvalCast(op, from, to, a.I, a.F)
		if isF {
			fr.Regs[dst] = core.FloatValue(f)
		} else {
			fr.Regs[dst] = core.IntValue(i)
		}
		return nil
	}, nil
}

// Direct-access kinds: the typed shapes the tier-2 memory fast path
// understands. Pointer-typed, sub-byte, and exotic widths always take the
// generic checked path.
const (
	dkNone = iota
	dkI8
	dkI16
	dkI32
	dkI64
	dkF32
	dkF64
)

func directKind(ty ir.Type) int {
	switch t := ty.(type) {
	case *ir.IntType:
		switch t.Bits {
		case 8:
			return dkI8
		case 16:
			return dkI16
		case 32:
			return dkI32
		case 64:
			return dkI64
		}
	case *ir.FloatType:
		switch t.Bits {
		case 32:
			return dkF32
		case 64:
			return dkF64
		}
	}
	return dkNone
}

// compileLoad lowers a typed load. For scalar int/float widths addressed
// through a register, the closure inlines the complete safety check (the
// core.Direct* accessors: liveness, pointer purity, exact bounds) and falls
// back to the generic LoadTyped path — which re-runs the checks and builds
// the exact tier-0 diagnostic — whenever any condition fails. The check is
// never elided; it is merely compiled.
func (c *Compiler) compileLoad(e *core.Engine, in *ir.Instr, fname string, line int) (step, error) {
	dst := in.Dst
	ty := in.Ty
	slow := func(e *core.Engine, fr *core.Frame, p core.Pointer) error {
		v, be := e.LoadTyped(p, ty)
		if be != nil {
			return e.Located(be, fname, line)
		}
		fr.Regs[dst] = v
		return nil
	}
	if kind := directKind(ty); kind != dkNone && in.Addr.Kind == ir.OperReg {
		ar := in.Addr.Reg
		switch kind {
		case dkI64:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI64(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkI32:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI32(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkI16:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI16(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkI8:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI8(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkF64:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectF64(p.Off); ok {
					fr.Regs[dst] = core.FloatValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkF32:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectF32(p.Off); ok {
					fr.Regs[dst] = core.FloatValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, nil
		}
	}
	getAddr, err := c.compileOperand(e, in.Addr)
	if err != nil {
		return nil, err
	}
	return func(e *core.Engine, fr *core.Frame) error {
		return slow(e, fr, getAddr(e, fr).P)
	}, nil
}

// compileStore mirrors compileLoad for stores: inline Direct* fast path,
// generic StoreTyped fallback with byte-identical diagnostics.
func (c *Compiler) compileStore(e *core.Engine, in *ir.Instr, fname string, line int) (step, error) {
	ty := in.Ty
	getVal, err := c.compileOperand(e, in.A)
	if err != nil {
		return nil, err
	}
	slow := func(e *core.Engine, fr *core.Frame, p core.Pointer) error {
		if be := e.StoreTyped(p, ty, getVal(e, fr)); be != nil {
			return e.Located(be, fname, line)
		}
		return nil
	}
	if kind := directKind(ty); kind != dkNone && in.Addr.Kind == ir.OperReg {
		ar := in.Addr.Reg
		// Pre-split the value operand: register read or baked constant.
		vr := int32(-1)
		var cvI int64
		var cvF float64
		switch in.A.Kind {
		case ir.OperReg:
			vr = in.A.Reg
		case ir.OperConstInt:
			cvI = in.A.Int
		case ir.OperConstFloat:
			cvF = in.A.Flt()
		default:
			kind = dkNone // globals/null/function values: generic path
		}
		switch kind {
		case dkI64:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				v := cvI
				if vr >= 0 {
					v = fr.Regs[vr].I
				}
				if p.Obj.DirectPutI64(p.Off, v) {
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkI32:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				v := cvI
				if vr >= 0 {
					v = fr.Regs[vr].I
				}
				if p.Obj.DirectPutI32(p.Off, v) {
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkI16:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				v := cvI
				if vr >= 0 {
					v = fr.Regs[vr].I
				}
				if p.Obj.DirectPutI16(p.Off, v) {
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkI8:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				v := cvI
				if vr >= 0 {
					v = fr.Regs[vr].I
				}
				if p.Obj.DirectPutI8(p.Off, v) {
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkF64:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				v := cvF
				if vr >= 0 {
					v = fr.Regs[vr].F
				}
				if p.Obj.DirectPutF64(p.Off, v) {
					return nil
				}
				return slow(e, fr, p)
			}, nil
		case dkF32:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				v := cvF
				if vr >= 0 {
					v = fr.Regs[vr].F
				}
				if p.Obj.DirectPutF32(p.Off, v) {
					return nil
				}
				return slow(e, fr, p)
			}, nil
		}
	}
	getAddr, err := c.compileOperand(e, in.Addr)
	if err != nil {
		return nil, err
	}
	return func(e *core.Engine, fr *core.Frame) error {
		return slow(e, fr, getAddr(e, fr).P)
	}, nil
}

func intBits(t ir.Type) int {
	switch v := t.(type) {
	case *ir.IntType:
		return v.Bits
	case *ir.FloatType:
		return v.Bits
	}
	return 64
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
