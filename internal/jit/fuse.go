// Superinstruction fusion: gep+load / gep+store pairs collapse into one
// closure, and runs of same-base pairs with constant offsets collapse into a
// single coalesced range check followed by raw in-order accesses. Safety is
// preserved structurally: the fused fast path *is* a complete check
// (core.Direct* / Object.InRange cover liveness, pointer purity, and exact
// bounds), and any failure re-executes the constituent instructions through
// the generic checked path, which faults at the same instruction with the
// byte-identical tier-0 diagnostic. Fuel stays exact via the weight account:
// a fused step carries the summed weights of its instructions, and the
// fallback refunds the unexecuted suffix internally.
package jit

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/ir"
)

// runOp is one gep+access pair inside a coalesced run, pre-decoded.
type runOp struct {
	kind   int   // dkI8..dkF64
	store  bool  // access direction
	gepDst int32 // the gep's destination register (still written!)
	delta  int64 // constant byte offset from the run's base pointer
	reg    int32 // load destination, or store value register (-1: constant)
	constI int64
	constF float64
}

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

// scanRun greedily matches consecutive (gep base+const, load/store) pairs
// that share one base register. The base must not be redefined inside the
// run so the single coalesced check covers every access.
func scanRun(instrs []ir.Instr) (ops []runOp, base int32, lo, hi int64, consumed int) {
	base = -1
	for k := 0; k+1 < len(instrs); k += 2 {
		g := &instrs[k]
		if g.Op != ir.OpGEP || g.Addr.Kind != ir.OperReg || g.A.Kind != ir.OperConstInt {
			break
		}
		if base == -1 {
			base = g.Addr.Reg
		} else if g.Addr.Reg != base {
			break
		}
		if g.Dst == base {
			break // gep would redefine the base: end the run before it
		}
		op, ok := matchRunAccess(&instrs[k+1], g.Dst, base)
		if !ok {
			break
		}
		op.gepDst = g.Dst
		op.delta = g.Stride * g.A.Int
		if len(ops) == 0 {
			lo, hi = op.delta, op.delta+directSize(op.kind)
		} else {
			if op.delta < lo {
				lo = op.delta
			}
			if end := op.delta + directSize(op.kind); end > hi {
				hi = end
			}
		}
		ops = append(ops, op)
		consumed = k + 2
	}
	if len(ops) < 2 {
		return nil, -1, 0, 0, 0
	}
	return ops, base, lo, hi, consumed
}

// matchRunAccess decodes the access half of a run pair: a direct-width load
// or store through addrReg that does not clobber the run's base register.
func matchRunAccess(a *ir.Instr, addrReg, base int32) (runOp, bool) {
	op := runOp{reg: -1}
	switch a.Op {
	case ir.OpLoad:
		op.kind = directKind(a.Ty)
		if op.kind == dkNone || a.Addr.Kind != ir.OperReg || a.Addr.Reg != addrReg || a.Dst == base {
			return op, false
		}
		op.reg = a.Dst
		return op, true
	case ir.OpStore:
		op.kind = directKind(a.Ty)
		op.store = true
		if op.kind == dkNone || a.Addr.Kind != ir.OperReg || a.Addr.Reg != addrReg {
			return op, false
		}
		switch a.A.Kind {
		case ir.OperReg:
			op.reg = a.A.Reg
		case ir.OperConstInt:
			op.constI = a.A.Int
		case ir.OperConstFloat:
			op.constF = a.A.Flt()
		default:
			return op, false
		}
		return op, true
	}
	return op, false
}

// tryRun compiles a coalesced access run starting at instrs[0]: one
// InRange check over the union window, then raw in-order accesses (every
// gep destination is still written, so downstream uses see the same
// registers as the unfused code). Any InRange failure — including benign
// ones like a pointer-carrying object — re-executes the run through the
// per-instruction checked path. consumed==0 means no run matched.
func (c *Compiler) tryRun(e *core.Engine, f *ir.Func, instrs []ir.Instr, wts []int64) (step, int, int64, error) {
	if len(instrs) < 4 {
		return nil, 0, 0, nil
	}
	ops, base, lo, hi, consumed := scanRun(instrs)
	if consumed < 4 {
		return nil, 0, 0, nil
	}

	// Checked fallback: the constituent instructions compiled individually,
	// with the run's internal refund account (runWeight was charged as one
	// step; a fault at sub-instruction k must net tier-0's prefix through k).
	sub := make([]step, consumed)
	subRefund := make([]int64, consumed)
	var runWeight int64
	for k := 0; k < consumed; k++ {
		runWeight += wts[k]
	}
	var prefix int64
	for k := 0; k < consumed; k++ {
		st, err := c.compileStep(e, f, &instrs[k])
		if err != nil {
			return nil, 0, 0, err
		}
		sub[k] = st
		prefix += wts[k]
		subRefund[k] = runWeight - prefix
	}
	slow := func(e *core.Engine, fr *core.Frame) error {
		for k, s := range sub {
			if err := s(e, fr); err != nil {
				e.RefundSteps(subRefund[k])
				return err
			}
		}
		return nil
	}

	st := func(e *core.Engine, fr *core.Frame) error {
		p := fr.Regs[base].P
		o := p.Obj
		if !o.InRange(p.Off+lo, p.Off+hi) {
			return slow(e, fr)
		}
		off := p.Off
		for i := range ops {
			op := &ops[i]
			fr.Regs[op.gepDst] = core.PtrValue(p.Add(op.delta))
			at := off + op.delta
			if op.store {
				vi, vf := op.constI, op.constF
				if op.reg >= 0 {
					vi, vf = fr.Regs[op.reg].I, fr.Regs[op.reg].F
				}
				switch op.kind {
				case dkI64:
					binary.LittleEndian.PutUint64(o.Data[at:], uint64(vi))
				case dkI32:
					binary.LittleEndian.PutUint32(o.Data[at:], uint32(vi))
				case dkI16:
					binary.LittleEndian.PutUint16(o.Data[at:], uint16(vi))
				case dkI8:
					o.Data[at] = byte(vi)
				case dkF64:
					binary.LittleEndian.PutUint64(o.Data[at:], math.Float64bits(vf))
				case dkF32:
					binary.LittleEndian.PutUint32(o.Data[at:], math.Float32bits(float32(vf)))
				}
			} else {
				switch op.kind {
				case dkI64:
					fr.Regs[op.reg] = core.IntValue(int64(binary.LittleEndian.Uint64(o.Data[at:])))
				case dkI32:
					fr.Regs[op.reg] = core.IntValue(int64(int32(binary.LittleEndian.Uint32(o.Data[at:]))))
				case dkI16:
					fr.Regs[op.reg] = core.IntValue(int64(int16(binary.LittleEndian.Uint16(o.Data[at:]))))
				case dkI8:
					fr.Regs[op.reg] = core.IntValue(int64(int8(o.Data[at])))
				case dkF64:
					fr.Regs[op.reg] = core.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(o.Data[at:])))
				case dkF32:
					fr.Regs[op.reg] = core.FloatValue(float64(math.Float32frombits(binary.LittleEndian.Uint32(o.Data[at:]))))
				}
			}
		}
		return nil
	}
	return st, consumed, runWeight, nil
}
