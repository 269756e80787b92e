// Superinstruction fusion: a gep+load / gep+store pair collapses into one
// closure. Safety is preserved structurally: every access is still checked
// at its own site — the fused fast path *is* a complete check (core.Direct*
// covers liveness, pointer purity, and exact bounds), and any failure takes
// the generic checked path, which faults at the same instruction with the
// byte-identical tier-0 diagnostic. Fuel stays exact via the weight account:
// a fused step carries the summed weights of its two instructions, and only
// the second (the access) can fault.
package jit

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// tryFusePair compiles instrs g,a as one superinstruction when g is a
// register-based gep and a is a direct-width load/store through g's result.
// Returns ok=false when the pair doesn't match.
func (c *Compiler) tryFusePair(e *core.Engine, f *ir.Func, g, a *ir.Instr) (step, bool, error) {
	if g.Op != ir.OpGEP || g.Addr.Kind != ir.OperReg {
		return nil, false, nil
	}
	base := g.Addr.Reg
	gdst := g.Dst
	stride := g.Stride
	// Offset: constant delta, or stride-scaled register index.
	idxReg := int32(-1)
	var delta int64
	switch g.A.Kind {
	case ir.OperConstInt:
		delta = stride * g.A.Int
	case ir.OperReg:
		idxReg = g.A.Reg
	default:
		return nil, false, nil
	}
	fname := f.Name

	switch a.Op {
	case ir.OpLoad:
		kind := directKind(a.Ty)
		if kind == dkNone || a.Addr.Kind != ir.OperReg || a.Addr.Reg != gdst {
			return nil, false, nil
		}
		dst := a.Dst
		ty := a.Ty
		line := int(a.Line)
		slow := func(e *core.Engine, fr *core.Frame, p core.Pointer) error {
			v, be := e.LoadTyped(p, ty)
			if be != nil {
				return e.Located(be, fname, line)
			}
			fr.Regs[dst] = v
			return nil
		}
		isFloat := kind == dkF32 || kind == dkF64
		if isFloat {
			return func(e *core.Engine, fr *core.Frame) error {
				d := delta
				if idxReg >= 0 {
					d = stride * fr.Regs[idxReg].I
				}
				p := fr.Regs[base].P.Add(d)
				fr.Regs[gdst] = core.PtrValue(p)
				var v float64
				var ok bool
				if kind == dkF64 {
					v, ok = p.Obj.DirectF64(p.Off)
				} else {
					v, ok = p.Obj.DirectF32(p.Off)
				}
				if ok {
					fr.Regs[dst] = core.FloatValue(v)
					return nil
				}
				return slow(e, fr, p)
			}, true, nil
		}
		return func(e *core.Engine, fr *core.Frame) error {
			d := delta
			if idxReg >= 0 {
				d = stride * fr.Regs[idxReg].I
			}
			p := fr.Regs[base].P.Add(d)
			fr.Regs[gdst] = core.PtrValue(p)
			var v int64
			var ok bool
			switch kind {
			case dkI64:
				v, ok = p.Obj.DirectI64(p.Off)
			case dkI32:
				v, ok = p.Obj.DirectI32(p.Off)
			case dkI16:
				v, ok = p.Obj.DirectI16(p.Off)
			default:
				v, ok = p.Obj.DirectI8(p.Off)
			}
			if ok {
				fr.Regs[dst] = core.IntValue(v)
				return nil
			}
			return slow(e, fr, p)
		}, true, nil

	case ir.OpStore:
		kind := directKind(a.Ty)
		if kind == dkNone || a.Addr.Kind != ir.OperReg || a.Addr.Reg != gdst {
			return nil, false, nil
		}
		vr := int32(-1)
		var cvI int64
		var cvF float64
		switch a.A.Kind {
		case ir.OperReg:
			vr = a.A.Reg
		case ir.OperConstInt:
			cvI = a.A.Int
		case ir.OperConstFloat:
			cvF = a.A.Flt()
		default:
			return nil, false, nil
		}
		ty := a.Ty
		line := int(a.Line)
		getVal, err := c.compileOperand(e, a.A)
		if err != nil {
			return nil, false, err
		}
		slow := func(e *core.Engine, fr *core.Frame, p core.Pointer) error {
			if be := e.StoreTyped(p, ty, getVal(e, fr)); be != nil {
				return e.Located(be, fname, line)
			}
			return nil
		}
		isFloat := kind == dkF32 || kind == dkF64
		if isFloat {
			return func(e *core.Engine, fr *core.Frame) error {
				d := delta
				if idxReg >= 0 {
					d = stride * fr.Regs[idxReg].I
				}
				p := fr.Regs[base].P.Add(d)
				fr.Regs[gdst] = core.PtrValue(p)
				v := cvF
				if vr >= 0 {
					v = fr.Regs[vr].F
				}
				var ok bool
				if kind == dkF64 {
					ok = p.Obj.DirectPutF64(p.Off, v)
				} else {
					ok = p.Obj.DirectPutF32(p.Off, v)
				}
				if ok {
					return nil
				}
				return slow(e, fr, p)
			}, true, nil
		}
		return func(e *core.Engine, fr *core.Frame) error {
			d := delta
			if idxReg >= 0 {
				d = stride * fr.Regs[idxReg].I
			}
			p := fr.Regs[base].P.Add(d)
			fr.Regs[gdst] = core.PtrValue(p)
			v := cvI
			if vr >= 0 {
				v = fr.Regs[vr].I
			}
			var ok bool
			switch kind {
			case dkI64:
				ok = p.Obj.DirectPutI64(p.Off, v)
			case dkI32:
				ok = p.Obj.DirectPutI32(p.Off, v)
			case dkI16:
				ok = p.Obj.DirectPutI16(p.Off, v)
			default:
				ok = p.Obj.DirectPutI8(p.Off, v)
			}
			if ok {
				return nil
			}
			return slow(e, fr, p)
		}, true, nil
	}
	return nil, false, nil
}
