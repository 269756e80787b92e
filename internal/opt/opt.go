// Package opt is the optimizer used for the native compilation pipeline. It
// exists to reproduce the paper's P2: optimizers reason with undefined-
// behaviour semantics, so they can delete the very accesses that constitute
// memory errors. Safe Sulong never runs these passes — it interprets the
// front end's unoptimized IR — while native binaries (and therefore ASan and
// Valgrind) see only what survives optimization.
//
// RunO0 models Clang's -O0 reality from the paper's case study 3 (Fig. 13):
// even with optimizations "disabled", the backend folds loads of constant
// globals with constant indices — including out-of-bounds ones.
//
// RunO3 models the -O3 pipeline with the specific passes the paper blames
// (Fig. 3): scalar promotion, constant folding, dead-store elimination on
// non-escaping objects, dead code elimination (including unused loads, legal
// under C's UB rules), and deletion of side-effect-free loops.
package opt

import (
	"repro/internal/ir"
)

// RunO0 applies the minimal folding that real -O0 back ends still perform.
func RunO0(m *ir.Module) {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		foldConstGlobalLoads(m, f)
	}
}

// RunO3 applies the full pipeline.
func RunO3(m *ir.Module) {
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		Mem2Reg(f)
		FoldConstants(f)
		foldConstGlobalLoads(m, f)
		DeadStoreElim(f)
		DeadCodeElim(f)
		DeleteDeadLoops(f)
		DeadCodeElim(f)
	}
}

// regUses counts, for each register, every operand position that reads it.
func regUses(f *ir.Func) []int {
	uses := make([]int, f.NumRegs)
	see := func(o *ir.Operand) {
		if o.Kind == ir.OperReg && o.Reg >= 0 && int(o.Reg) < f.NumRegs {
			uses[o.Reg]++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].Operands(see)
		}
	}
	return uses
}

// makeMove rewrites an instruction into a register move (a no-op bitcast),
// preserving the destination.
func makeMove(in *ir.Instr, src ir.Operand, ty ir.Type) {
	*in = ir.Instr{Op: ir.OpCast, Cast: ir.Bitcast, Dst: in.Dst, Ty: ty, Ty2: ty, A: src, Line: in.Line}
}

// makeNop turns an instruction into a move of zero into a fresh, otherwise
// unused register; DeadCodeElim sweeps it afterwards.
func makeNop(f *ir.Func, in *ir.Instr) {
	dst := in.Dst
	if dst < 0 {
		dst = f.NewReg()
	}
	*in = ir.Instr{Op: ir.OpCast, Cast: ir.Bitcast, Dst: dst, Ty: ir.I64, Ty2: ir.I64, A: ir.ConstInt(0, ir.I64), Line: in.Line}
}

// Mem2Reg promotes non-escaping scalar allocas to plain registers: loads
// become moves from a value register, stores become moves into it. Because
// SIR registers are mutable (non-SSA), no phi construction is needed.
//
// Promotion requires every use of the alloca's address register to be a
// load or store of exactly the alloca's element type; anything else (calls,
// geps, pointer arithmetic, mixed-width access) disqualifies it.
func Mem2Reg(f *ir.Func) {
	type cand struct {
		ty    ir.Type
		valid bool
	}
	cands := map[int32]*cand{} // address register -> candidacy
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpAlloca {
				if _, isAgg := in.Ty.(*ir.ArrayType); isAgg {
					continue
				}
				if _, isSt := in.Ty.(*ir.StructType); isSt {
					continue
				}
				if _, hasCount := in.CountOp(); hasCount {
					continue
				}
				cands[in.Dst] = &cand{ty: in.Ty, valid: true}
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	disqualify := func(o *ir.Operand) {
		if o.Kind == ir.OperReg {
			if c, ok := cands[o.Reg]; ok {
				c.valid = false
			}
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoad:
				if in.Addr.Kind == ir.OperReg {
					if c, ok := cands[in.Addr.Reg]; ok && !ir.TypesEqual(c.ty, in.Ty) {
						c.valid = false
					}
					continue
				}
			case ir.OpStore:
				disqualify(&in.A) // storing the address itself escapes it
				if in.Addr.Kind == ir.OperReg {
					if c, ok := cands[in.Addr.Reg]; ok && !ir.TypesEqual(c.ty, in.Ty) {
						c.valid = false
					}
					continue
				}
			case ir.OpAlloca:
				continue
			default:
				in.Operands(disqualify)
			}
		}
	}
	// Rewrite: each promoted alloca gets a fresh value register.
	valueReg := map[int32]int32{}
	valueTy := map[int32]ir.Type{}
	for addrReg, c := range cands {
		if c.valid {
			valueReg[addrReg] = f.NewReg()
			valueTy[addrReg] = c.ty
		}
	}
	if len(valueReg) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpAlloca:
				if vr, ok := valueReg[in.Dst]; ok {
					// Initialize the value register to zero (the managed
					// engine zeroes allocas; keep behaviour identical).
					ty := valueTy[in.Dst]
					dst := in.Dst
					var init ir.Operand
					switch ty.(type) {
					case *ir.FloatType:
						init = ir.ConstFloat(0, ty)
					case *ir.PtrType:
						init = ir.Null()
					default:
						init = ir.ConstInt(0, ty)
					}
					*in = ir.Instr{Op: ir.OpCast, Cast: ir.Bitcast, Dst: vr, Ty: ty, Ty2: ty, A: init, Line: in.Line}
					_ = dst
				}
			case ir.OpLoad:
				if in.Addr.Kind == ir.OperReg {
					if vr, ok := valueReg[in.Addr.Reg]; ok {
						makeMove(in, ir.Reg(vr, valueTy[in.Addr.Reg]), valueTy[in.Addr.Reg])
					}
				}
			case ir.OpStore:
				if in.Addr.Kind == ir.OperReg {
					if vr, ok := valueReg[in.Addr.Reg]; ok {
						ty := valueTy[in.Addr.Reg]
						src := in.A
						*in = ir.Instr{Op: ir.OpCast, Cast: ir.Bitcast, Dst: vr, Ty: ty, Ty2: ty, A: src, Line: in.Line}
					}
				}
			}
		}
	}
}

// FoldConstants performs block-local constant folding and copy propagation.
func FoldConstants(f *ir.Func) {
	for _, b := range f.Blocks {
		known := map[int32]ir.Operand{} // reg -> constant operand
		resolve := func(o *ir.Operand) {
			if o.Kind == ir.OperReg {
				if c, ok := known[o.Reg]; ok {
					c.Ty = o.Ty
					*o = c
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.Operands(resolve)
			if in.Dst >= 0 {
				delete(known, in.Dst)
			}
			switch in.Op {
			case ir.OpBin:
				if in.A.Kind == ir.OperConstInt && in.B.Kind == ir.OperConstInt && !in.Bin.IsFloatOp() {
					if v, ok := ir.EvalIntBin(in.Bin, intBits(in.Ty), in.A.Int, in.B.Int); ok {
						known[in.Dst] = ir.ConstInt(v, in.Ty)
						makeMove(in, ir.ConstInt(v, in.Ty), in.Ty)
					}
				} else if in.A.Kind == ir.OperConstFloat && in.B.Kind == ir.OperConstFloat && in.Bin.IsFloatOp() {
					v := ir.EvalFloatBin(in.Bin, intBits(in.Ty), in.A.Flt(), in.B.Flt())
					known[in.Dst] = ir.ConstFloat(v, in.Ty)
					makeMove(in, ir.ConstFloat(v, in.Ty), in.Ty)
				}
			case ir.OpCmp:
				if in.A.Kind == ir.OperConstInt && in.B.Kind == ir.OperConstInt && !in.Pred.IsFloatPred() {
					r := ir.EvalIntCmp(in.Pred, intBits(in.Ty), in.A.Int, in.B.Int)
					v := int64(0)
					if r {
						v = 1
					}
					known[in.Dst] = ir.ConstInt(v, ir.I1)
					makeMove(in, ir.ConstInt(v, ir.I1), ir.I1)
				}
			case ir.OpCast:
				if in.Cast == ir.Bitcast && in.A.IsConst() {
					known[in.Dst] = in.A
				} else if in.A.Kind == ir.OperConstInt || in.A.Kind == ir.OperConstFloat {
					i, f := in.A.Int, 0.0
					if in.A.Kind == ir.OperConstFloat {
						i, f = 0, in.A.Flt()
					}
					iv, fv, isF := ir.EvalCast(in.Cast, intBits(in.Ty), intBits(in.Ty2), i, f)
					if in.Cast != ir.PtrToInt && in.Cast != ir.IntToPtr {
						if isF {
							known[in.Dst] = ir.ConstFloat(fv, in.Ty2)
							makeMove(in, ir.ConstFloat(fv, in.Ty2), in.Ty2)
						} else {
							known[in.Dst] = ir.ConstInt(iv, in.Ty2)
							makeMove(in, ir.ConstInt(iv, in.Ty2), in.Ty2)
						}
					}
				}
			case ir.OpCondBr:
				if in.A.Kind == ir.OperConstInt {
					target := in.Blk1
					if in.A.Int != 0 {
						target = in.Blk0
					}
					*in = ir.Instr{Op: ir.OpBr, Blk0: target, Line: in.Line}
				}
			}
		}
	}
}

// foldConstGlobalLoads replaces loads of `const` globals at constant offsets
// with their initializer values — including offsets that are out of bounds,
// in which case the load folds to zero and the bug is silently deleted
// (paper Fig. 13: Clang does this even at -O0).
func foldConstGlobalLoads(m *ir.Module, f *ir.Func) {
	for _, b := range f.Blocks {
		// reg -> (global, byte offset) for geps with constant indices
		addr := map[int32]struct {
			g   *ir.Global
			off int64
		}{}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpGEP:
				if in.Dst >= 0 {
					delete(addr, in.Dst)
				}
				if in.A.Kind != ir.OperConstInt {
					continue
				}
				if in.Addr.Kind == ir.OperGlobal {
					g := m.Global(in.Addr.Sym)
					if g != nil && g.IsConst {
						addr[in.Dst] = struct {
							g   *ir.Global
							off int64
						}{g, in.Stride * in.A.Int}
					}
				} else if in.Addr.Kind == ir.OperReg {
					if base, ok := addr[in.Addr.Reg]; ok {
						base.off += in.Stride * in.A.Int
						addr[in.Dst] = base
					}
				}
			case ir.OpLoad:
				if in.Addr.Kind == ir.OperGlobal {
					g := m.Global(in.Addr.Sym)
					if g != nil && g.IsConst {
						if v, ok := readConst(g, 0, in.Ty); ok {
							makeMove(in, v, in.Ty)
						}
					}
					continue
				}
				if in.Addr.Kind == ir.OperReg {
					if base, ok := addr[in.Addr.Reg]; ok {
						if v, ok2 := readConst(base.g, base.off, in.Ty); ok2 {
							makeMove(in, v, in.Ty)
						}
					}
				}
				if in.Dst >= 0 {
					delete(addr, in.Dst)
				}
			default:
				if in.Dst >= 0 {
					delete(addr, in.Dst)
				}
			}
		}
	}
}

// readConst evaluates a typed read of a constant global's initializer.
// Out-of-bounds offsets read as zero: the compiler has, at this point,
// erased the error (undefined behaviour makes any answer "correct").
func readConst(g *ir.Global, off int64, ty ir.Type) (ir.Operand, bool) {
	if _, isF := ty.(*ir.FloatType); isF {
		return ir.Operand{}, false // keep it simple: fold integers only
	}
	if _, isP := ty.(*ir.PtrType); isP {
		return ir.Operand{}, false
	}
	size := ty.Size()
	if off < 0 || off+size > g.Ty.Size() {
		return ir.ConstInt(0, ty), true // the out-of-bounds read "folds away"
	}
	bytes := make([]byte, g.Ty.Size())
	if !flattenConst(g.Init, g.Ty, bytes, 0) {
		return ir.Operand{}, false
	}
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(bytes[off+i]) << (8 * uint(i))
	}
	return ir.ConstInt(ir.SignExtend(int64(v), int(size*8)), ty), true
}

// flattenConst serializes an initializer into bytes; pointer-valued
// constants make the global unfoldable.
func flattenConst(c ir.Const, ty ir.Type, out []byte, off int64) bool {
	switch v := c.(type) {
	case nil, ir.ConstZero:
		return true
	case ir.ConstIntVal:
		for i := int64(0); i < ty.Size(); i++ {
			out[off+i] = byte(uint64(v.V) >> (8 * uint(i)))
		}
		return true
	case ir.ConstBytes:
		copy(out[off:], v.Data)
		return true
	case ir.ConstArrayVal:
		at, ok := ty.(*ir.ArrayType)
		if !ok {
			return false
		}
		for i, el := range v.Elems {
			if !flattenConst(el, at.Elem, out, off+int64(i)*at.Elem.Size()) {
				return false
			}
		}
		return true
	case ir.ConstStructVal:
		st, ok := ty.(*ir.StructType)
		if !ok {
			return false
		}
		for i, el := range v.Fields {
			if !flattenConst(el, st.Fields[i].Ty, out, off+st.Fields[i].Offset) {
				return false
			}
		}
		return true
	}
	return false
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
