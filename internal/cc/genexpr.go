package cc

import (
	"fmt"

	"repro/internal/ir"
)

// value is an rvalue during code generation: an operand plus its C type.
type value struct {
	op ir.Operand
	ty *CType
}

// expr generates code for an expression and returns its rvalue.
func (g *fnGen) expr(e Expr) (value, error) {
	g.at(posOf(e))
	switch v := e.(type) {
	case *IntLit:
		ty := tyInt
		if v.Long || v.V > 0x7fffffff || v.V < -0x80000000 {
			ty = pick(v.Unsigned, tyULong, tyLong)
		} else if v.Unsigned {
			ty = tyUInt
		}
		return value{op: ir.ConstInt(v.V, ty.IR()), ty: ty}, nil
	case *FloatLit:
		if v.Single {
			return value{op: ir.ConstFloat(v.V, ir.F32), ty: tyFloat}, nil
		}
		return value{op: ir.ConstFloat(v.V, ir.F64), ty: tyDouble}, nil
	case *StrLit:
		sym := g.cg.internString(v.S)
		return value{op: ir.GlobalRef(sym), ty: tyCharPtr}, nil
	case *Ident:
		return g.identValue(v)
	case *Unary:
		return g.unary(v)
	case *Binary:
		return g.binary(v)
	case *Assign:
		return g.assign(v)
	case *Cond:
		return g.ternary(v)
	case *Call:
		return g.call(v)
	case *Index, *Member:
		addr, ty, err := g.addr(e)
		if err != nil {
			return value{}, err
		}
		return g.loadOrDecay(addr, ty)
	case *CastExpr:
		x, err := g.expr(v.X)
		if err != nil {
			return value{}, err
		}
		if v.Ty.Kind == CVoid {
			return value{op: ir.ConstInt(0, ir.I32), ty: tyVoid}, nil
		}
		return g.convert(x, v.Ty, v.Pos)
	case *SizeofExpr:
		ty := v.Ty
		if ty == nil {
			var err error
			ty, err = g.typeOf(v.X)
			if err != nil {
				return value{}, err
			}
		}
		return value{op: ir.ConstInt(ty.Size(), ir.I64), ty: tyULong}, nil
	case *InitList:
		return value{}, g.cg.errAt(v.Pos, "brace initializer is only valid in declarations")
	}
	return value{}, fmt.Errorf("cc: unhandled expression %T", e)
}

// identValue loads a named variable, decays arrays/functions to addresses.
func (g *fnGen) identValue(v *Ident) (value, error) {
	if l := g.lookup(v.Name); l != nil {
		return g.loadOrDecay(ir.Reg(l.addr, ir.BytePtr), l.ty)
	}
	if ty, ok := g.cg.globals.Get(v.Name); ok {
		return g.loadOrDecay(ir.GlobalRef(v.Name), ty)
	}
	if sig, ok := g.cg.funcs.Get(v.Name); ok {
		return value{op: ir.FuncRef(v.Name), ty: ptrTo(&CType{Kind: CFunc, Fn: sig})}, nil
	}
	return value{}, g.cg.errAt(v.Pos, "use of undeclared identifier %q", v.Name)
}

// loadOrDecay loads a scalar from addr, or decays aggregates/functions.
func (g *fnGen) loadOrDecay(addr ir.Operand, ty *CType) (value, error) {
	switch ty.Kind {
	case CArray:
		return value{op: addr, ty: ptrTo(ty.Elem)}, nil
	case CFunc:
		return value{op: addr, ty: ptrTo(ty)}, nil
	case CStruct:
		// Struct rvalues are represented by their address; assignment and
		// argument passing handle the copy.
		return value{op: addr, ty: ty}, nil
	}
	dst := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, Ty: ty.IR(), Addr: addr})
	return value{op: ir.Reg(dst, ty.IR()), ty: ty}, nil
}

// addr computes an lvalue address, returning the operand and the object type.
func (g *fnGen) addr(e Expr) (ir.Operand, *CType, error) {
	g.at(posOf(e))
	switch v := e.(type) {
	case *Ident:
		if l := g.lookup(v.Name); l != nil {
			return ir.Reg(l.addr, ir.BytePtr), l.ty, nil
		}
		if ty, ok := g.cg.globals.Get(v.Name); ok {
			return ir.GlobalRef(v.Name), ty, nil
		}
		if sig, ok := g.cg.funcs.Get(v.Name); ok {
			return ir.FuncRef(v.Name), &CType{Kind: CFunc, Fn: sig}, nil
		}
		return ir.Operand{}, nil, g.cg.errAt(v.Pos, "use of undeclared identifier %q", v.Name)
	case *Unary:
		if v.Op == "*" {
			x, err := g.expr(v.X)
			if err != nil {
				return ir.Operand{}, nil, err
			}
			if x.ty.Kind != CPtr {
				return ir.Operand{}, nil, g.cg.errAt(v.Pos, "cannot dereference %s", x.ty)
			}
			return x.op, x.ty.Elem, nil
		}
	case *Index:
		baseTy, err := g.typeOf(v.X)
		if err != nil {
			return ir.Operand{}, nil, err
		}
		var base ir.Operand
		var elem *CType
		if baseTy.Kind == CArray {
			base, _, err = g.addr(v.X)
			if err != nil {
				return ir.Operand{}, nil, err
			}
			elem = baseTy.Elem
		} else {
			bv, err := g.expr(v.X)
			if err != nil {
				return ir.Operand{}, nil, err
			}
			if bv.ty.Kind != CPtr {
				return ir.Operand{}, nil, g.cg.errAt(v.Pos, "subscript of non-pointer %s", bv.ty)
			}
			base = bv.op
			elem = bv.ty.Elem
		}
		idx, err := g.expr(v.I)
		if err != nil {
			return ir.Operand{}, nil, err
		}
		idx, err = g.convert(idx, tyLong, v.Pos)
		if err != nil {
			return ir.Operand{}, nil, err
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, Addr: base, Stride: elem.Size(), A: idx.op, Line: int32(v.Pos.Line)})
		return ir.Reg(dst, ir.BytePtr), elem, nil
	case *Member:
		var base ir.Operand
		var sty *CType
		if v.Arrow {
			bv, err := g.expr(v.X)
			if err != nil {
				return ir.Operand{}, nil, err
			}
			if bv.ty.Kind != CPtr || bv.ty.Elem.Kind != CStruct {
				return ir.Operand{}, nil, g.cg.errAt(v.Pos, "-> on non-struct-pointer %s", bv.ty)
			}
			base, sty = bv.op, bv.ty.Elem
		} else {
			b, ty, err := g.addr(v.X)
			if err != nil {
				return ir.Operand{}, nil, err
			}
			if ty.Kind != CStruct {
				return ir.Operand{}, nil, g.cg.errAt(v.Pos, ". on non-struct %s", ty)
			}
			base, sty = b, ty
		}
		fi, fty := sty.FieldIndex(v.Name)
		if fi < 0 {
			return ir.Operand{}, nil, g.cg.errAt(v.Pos, "%s has no member %q", sty, v.Name)
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, Addr: base, Stride: 1, A: ir.ConstInt(sty.FieldOffset(fi), ir.I64), Line: int32(v.Pos.Line)})
		return ir.Reg(dst, ir.BytePtr), fty, nil
	case *StrLit:
		sym := g.cg.internString(v.S)
		return ir.GlobalRef(sym), arrayOf(tyChar, int64(len(v.S))+1), nil
	case *CastExpr:
		// (T*)x used as lvalue via *(T*)x reaches here through Unary "*".
	}
	return ir.Operand{}, nil, fmt.Errorf("cc: expression is not an lvalue (%T)", e)
}

func (g *fnGen) unary(v *Unary) (value, error) {
	switch v.Op {
	case "&":
		addr, ty, err := g.addr(v.X)
		if err != nil {
			return value{}, err
		}
		if ty.Kind == CFunc {
			return value{op: addr, ty: ptrTo(ty)}, nil
		}
		return value{op: addr, ty: ptrTo(ty)}, nil
	case "*":
		x, err := g.expr(v.X)
		if err != nil {
			return value{}, err
		}
		if x.ty.Kind != CPtr {
			return value{}, g.cg.errAt(v.Pos, "cannot dereference %s", x.ty)
		}
		if x.ty.Elem.Kind == CFunc {
			return x, nil // *fnptr == fnptr
		}
		return g.loadOrDecay(x.op, x.ty.Elem)
	case "-", "+", "~":
		x, err := g.expr(v.X)
		if err != nil {
			return value{}, err
		}
		x = g.promote(x)
		if v.Op == "+" {
			return x, nil
		}
		dst := g.f.NewReg()
		if x.ty.Kind == CFloat {
			if v.Op == "~" {
				return value{}, g.cg.errAt(v.Pos, "~ on floating value")
			}
			g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: x.ty.IR(), Bin: ir.FSub, A: ir.ConstFloat(0, x.ty.IR()), B: x.op})
			return value{op: ir.Reg(dst, x.ty.IR()), ty: x.ty}, nil
		}
		if v.Op == "-" {
			g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: x.ty.IR(), Bin: ir.Sub, A: ir.ConstInt(0, x.ty.IR()), B: x.op})
		} else {
			g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: x.ty.IR(), Bin: ir.Xor, A: x.op, B: ir.ConstInt(-1, x.ty.IR())})
		}
		return value{op: ir.Reg(dst, x.ty.IR()), ty: x.ty}, nil
	case "!":
		cond, err := g.exprCond(v.X)
		if err != nil {
			return value{}, err
		}
		notDst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: notDst, Ty: ir.I1, Bin: ir.Xor, A: cond, B: ir.ConstInt(1, ir.I1)})
		return g.boolToInt(ir.Reg(notDst, ir.I1)), nil
	case "++", "--":
		return g.incDec(v)
	}
	return value{}, g.cg.errAt(v.Pos, "unhandled unary %q", v.Op)
}

// incDec handles ++x, --x, x++, x--.
func (g *fnGen) incDec(v *Unary) (value, error) {
	addr, ty, err := g.addr(v.X)
	if err != nil {
		return value{}, err
	}
	old, err := g.loadOrDecay(addr, ty)
	if err != nil {
		return value{}, err
	}
	delta := int64(1)
	if v.Op == "--" {
		delta = -1
	}
	var nv value
	switch {
	case ty.Kind == CPtr:
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, Addr: old.op, Stride: ty.Elem.Size(), A: ir.ConstInt(delta, ir.I64), Line: int32(v.Pos.Line)})
		nv = value{op: ir.Reg(dst, ir.BytePtr), ty: ty}
	case ty.Kind == CFloat:
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: ty.IR(), Bin: ir.FAdd, A: old.op, B: ir.ConstFloat(float64(delta), ty.IR())})
		nv = value{op: ir.Reg(dst, ty.IR()), ty: ty}
	default:
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: ty.IR(), Bin: ir.Add, A: old.op, B: ir.ConstInt(delta, ty.IR())})
		nv = value{op: ir.Reg(dst, ty.IR()), ty: ty}
	}
	g.emit(ir.Instr{Op: ir.OpStore, Ty: ty.Decay().IR(), A: nv.op, Addr: addr, Line: int32(v.Pos.Line)})
	if v.Postfix {
		return old, nil
	}
	return nv, nil
}

// promote applies C integer promotion (small ints widen to int).
func (g *fnGen) promote(x value) value {
	if x.ty.Kind == CInt && x.ty.Bits < 32 {
		return g.mustConvert(x, pick(false, tyUInt, tyInt))
	}
	return x
}

// mustConvert converts between scalar types; the conversion cannot fail for
// arithmetic types.
func (g *fnGen) mustConvert(x value, to *CType) value {
	v, err := g.convert(x, to, Pos{})
	if err != nil {
		panic("cc: internal conversion error: " + err.Error())
	}
	return v
}

// convert emits a conversion from x to type `to`.
func (g *fnGen) convert(x value, to *CType, pos Pos) (value, error) {
	from := x.ty.Decay()
	to = to.Decay()
	if from.Kind == CVoid && to.Kind == CVoid {
		return x, nil
	}
	emitCast := func(op ir.CastOp, fromIR, toIR ir.Type) value {
		// Front ends fold constant conversions even at -O0 (Clang does);
		// the backend's Fig. 13 const-global fold depends on seeing
		// constant gep indices.
		if x.op.Kind == ir.OperConstInt || x.op.Kind == ir.OperConstFloat {
			i, f := x.op.Int, 0.0
			if x.op.Kind == ir.OperConstFloat {
				i, f = 0, x.op.Flt()
			}
			iv, fv, isF := ir.EvalCast(op, bitsOfIR(fromIR), bitsOfIR(toIR), i, f)
			if isF {
				return value{op: ir.ConstFloat(fv, toIR), ty: to}
			}
			if op != ir.PtrToInt && op != ir.IntToPtr {
				return value{op: ir.ConstInt(iv, toIR), ty: to}
			}
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpCast, Dst: dst, Cast: op, Ty: fromIR, Ty2: toIR, A: x.op})
		return value{op: ir.Reg(dst, toIR), ty: to}
	}
	switch {
	case from.Kind == CInt && to.Kind == CInt:
		if from.Bits == to.Bits {
			return value{op: x.op, ty: to}, nil
		}
		if from.Bits > to.Bits {
			return emitCast(ir.Trunc, from.IR(), to.IR()), nil
		}
		if from.Unsigned {
			return emitCast(ir.ZExt, from.IR(), to.IR()), nil
		}
		return emitCast(ir.SExt, from.IR(), to.IR()), nil
	case from.Kind == CInt && to.Kind == CFloat:
		if from.Unsigned {
			return emitCast(ir.UIToFP, from.IR(), to.IR()), nil
		}
		return emitCast(ir.SIToFP, from.IR(), to.IR()), nil
	case from.Kind == CFloat && to.Kind == CInt:
		if to.Unsigned {
			return emitCast(ir.FPToUI, from.IR(), to.IR()), nil
		}
		return emitCast(ir.FPToSI, from.IR(), to.IR()), nil
	case from.Kind == CFloat && to.Kind == CFloat:
		if from.Bits == to.Bits {
			return value{op: x.op, ty: to}, nil
		}
		if from.Bits > to.Bits {
			return emitCast(ir.FPTrunc, from.IR(), to.IR()), nil
		}
		return emitCast(ir.FPExt, from.IR(), to.IR()), nil
	case from.Kind == CPtr && to.Kind == CPtr:
		// Pointer-to-pointer conversion is free in the native model, but when
		// the target pointee is a named, complete struct or union that the
		// source pointee is not, emit a checked bitcast carrying the declared
		// C type. The managed engines validate the cast against the pointed-to
		// allocation's effective type (adopting one for fresh heap blocks);
		// native execution treats it as a plain move.
		if te := to.Elem; te.Kind == CStruct && te.Struct.Complete && te.Struct.Name != "" &&
			!(from.Elem.Kind == CStruct && from.Elem.Struct == to.Elem.Struct) &&
			x.op.Kind != ir.OperNull {
			dst := g.f.NewReg()
			g.emit(ir.Instr{
				Op: ir.OpCast, Dst: dst, Cast: ir.Bitcast,
				Ty: ir.BytePtr, Ty2: ir.Ptr(te.IR()), A: x.op,
				Ext: &ir.Ext{CType: te.String()},
			})
			return value{op: ir.Reg(dst, ir.BytePtr), ty: to}, nil
		}
		return value{op: x.op, ty: to}, nil
	case from.Kind == CPtr && to.Kind == CInt:
		v := emitCast(ir.PtrToInt, ir.BytePtr, ir.I64)
		if to.Bits < 64 {
			x = v
			from = tyLong
			return emitCast(ir.Trunc, ir.I64, to.IR()), nil
		}
		v.ty = to
		return v, nil
	case from.Kind == CInt && to.Kind == CPtr:
		if x.op.Kind == ir.OperConstInt && x.op.Int == 0 {
			return value{op: ir.Null(), ty: to}, nil
		}
		if from.Bits < 64 {
			x = g.mustConvert(x, tyLong)
		}
		return emitCast(ir.IntToPtr, ir.I64, ir.BytePtr), nil
	case to.Kind == CVoid:
		return value{op: x.op, ty: tyVoid}, nil
	case from.Kind == CStruct && to.Kind == CStruct:
		return x, nil
	}
	return value{}, g.cg.errAt(pos, "cannot convert %s to %s", x.ty, to)
}

// boolToInt widens an i1 to a C int value.
func (g *fnGen) boolToInt(op ir.Operand) value {
	dst := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpCast, Dst: dst, Cast: ir.ZExt, Ty: ir.I1, Ty2: ir.I32, A: op})
	return value{op: ir.Reg(dst, ir.I32), ty: tyInt}
}

// exprCond evaluates e as a branch condition (i1 operand).
func (g *fnGen) exprCond(e Expr) (ir.Operand, error) {
	// Logical operators get short-circuit lowering here.
	if b, ok := e.(*Binary); ok && (b.Op == "&&" || b.Op == "||") {
		tmp := g.alloca(tyInt, "")
		end := g.newBlock("sc.end")
		rhs := g.newBlock("sc.rhs")
		lc, err := g.exprCond(b.X)
		if err != nil {
			return ir.Operand{}, err
		}
		shortVal := int64(0)
		if b.Op == "||" {
			shortVal = 1
		}
		shortB := g.newBlock("sc.short")
		if b.Op == "&&" {
			g.emit(ir.Instr{Op: ir.OpCondBr, A: lc, Blk0: rhs, Blk1: shortB})
		} else {
			g.emit(ir.Instr{Op: ir.OpCondBr, A: lc, Blk0: shortB, Blk1: rhs})
		}
		g.setBlock(shortB)
		g.emit(ir.Instr{Op: ir.OpStore, Ty: ir.I32, A: ir.ConstInt(shortVal, ir.I32), Addr: ir.Reg(tmp, ir.BytePtr)})
		g.br(end)
		g.setBlock(rhs)
		rc, err := g.exprCond(b.Y)
		if err != nil {
			return ir.Operand{}, err
		}
		rci := g.boolToInt(rc)
		g.emit(ir.Instr{Op: ir.OpStore, Ty: ir.I32, A: rci.op, Addr: ir.Reg(tmp, ir.BytePtr)})
		g.br(end)
		g.setBlock(end)
		ld := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: ld, Ty: ir.I32, Addr: ir.Reg(tmp, ir.BytePtr)})
		cmp := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpCmp, Dst: cmp, Pred: ir.Ne, Ty: ir.I32, A: ir.Reg(ld, ir.I32), B: ir.ConstInt(0, ir.I32)})
		return ir.Reg(cmp, ir.I1), nil
	}
	if u, ok := e.(*Unary); ok && u.Op == "!" {
		inner, err := g.exprCond(u.X)
		if err != nil {
			return ir.Operand{}, err
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: ir.I1, Bin: ir.Xor, A: inner, B: ir.ConstInt(1, ir.I1)})
		return ir.Reg(dst, ir.I1), nil
	}
	v, err := g.expr(e)
	if err != nil {
		return ir.Operand{}, err
	}
	dst := g.f.NewReg()
	switch v.ty.Decay().Kind {
	case CFloat:
		g.emit(ir.Instr{Op: ir.OpCmp, Dst: dst, Pred: ir.FOne, Ty: v.ty.IR(), A: v.op, B: ir.ConstFloat(0, v.ty.IR())})
	case CPtr:
		g.emit(ir.Instr{Op: ir.OpCmp, Dst: dst, Pred: ir.Ne, Ty: ir.BytePtr, A: v.op, B: ir.Null()})
	default:
		g.emit(ir.Instr{Op: ir.OpCmp, Dst: dst, Pred: ir.Ne, Ty: v.ty.IR(), A: v.op, B: ir.ConstInt(0, v.ty.IR())})
	}
	return ir.Reg(dst, ir.I1), nil
}

// usualArith computes the common type of a binary arithmetic operation.
func usualArith(a, b *CType) *CType {
	if a.Kind == CFloat || b.Kind == CFloat {
		if a.Kind == CFloat && a.Bits == 64 || b.Kind == CFloat && b.Bits == 64 {
			return tyDouble
		}
		return tyFloat
	}
	// both integers; promote to >= int
	pa, pb := a, b
	if pa.Bits < 32 {
		pa = tyInt
	}
	if pb.Bits < 32 {
		pb = tyInt
	}
	if pa.Bits == pb.Bits {
		if pa.Unsigned || pb.Unsigned {
			return pick(pa.Bits == 64, tyULong, tyUInt)
		}
		return pick(pa.Bits == 64, tyLong, tyInt)
	}
	big, small := pa, pb
	if pb.Bits > pa.Bits {
		big, small = pb, pa
	}
	if big.Unsigned || small.Unsigned && small.Bits == big.Bits {
		return pick(big.Bits == 64, tyULong, tyUInt)
	}
	return pick(big.Bits == 64, tyLong, tyInt)
}

var cmpPreds = map[string][2]ir.Pred{
	// {signed/float-ordered, unsigned}
	"==": {ir.Eq, ir.Eq},
	"!=": {ir.Ne, ir.Ne},
	"<":  {ir.Slt, ir.Ult},
	"<=": {ir.Sle, ir.Ule},
	">":  {ir.Sgt, ir.Ugt},
	">=": {ir.Sge, ir.Uge},
}

var floatPreds = map[string]ir.Pred{
	"==": ir.FOeq, "!=": ir.FOne, "<": ir.FOlt, "<=": ir.FOle, ">": ir.FOgt, ">=": ir.FOge,
}

var intBinOps = map[string][2]ir.BinOp{
	// {signed, unsigned}
	"+": {ir.Add, ir.Add}, "-": {ir.Sub, ir.Sub}, "*": {ir.Mul, ir.Mul},
	"/": {ir.SDiv, ir.UDiv}, "%": {ir.SRem, ir.URem},
	"&": {ir.And, ir.And}, "|": {ir.Or, ir.Or}, "^": {ir.Xor, ir.Xor},
	"<<": {ir.Shl, ir.Shl}, ">>": {ir.AShr, ir.LShr},
}

var floatBinOps = map[string]ir.BinOp{
	"+": ir.FAdd, "-": ir.FSub, "*": ir.FMul, "/": ir.FDiv, "%": ir.FRem,
}

func (g *fnGen) binary(v *Binary) (value, error) {
	switch v.Op {
	case ",":
		if _, err := g.expr(v.X); err != nil {
			return value{}, err
		}
		return g.expr(v.Y)
	case "&&", "||":
		cond, err := g.exprCond(v)
		if err != nil {
			return value{}, err
		}
		return g.boolToInt(cond), nil
	}
	x, err := g.expr(v.X)
	if err != nil {
		return value{}, err
	}
	y, err := g.expr(v.Y)
	if err != nil {
		return value{}, err
	}
	return g.binaryValues(v.Op, x, y, v.Pos)
}

func (g *fnGen) binaryValues(op string, x, y value, pos Pos) (value, error) {
	xt, yt := x.ty.Decay(), y.ty.Decay()

	// Pointer arithmetic and comparisons.
	if xt.Kind == CPtr || yt.Kind == CPtr {
		return g.pointerBinary(op, x, y, pos)
	}
	if !xt.IsArithmetic() || !yt.IsArithmetic() {
		return value{}, g.cg.errAt(pos, "invalid operands to %q (%s, %s)", op, x.ty, y.ty)
	}

	if preds, isCmp := cmpPreds[op]; isCmp {
		common := usualArith(xt, yt)
		x, y = g.mustConvert(x, common), g.mustConvert(y, common)
		dst := g.f.NewReg()
		if common.Kind == CFloat {
			g.emit(ir.Instr{Op: ir.OpCmp, Dst: dst, Pred: floatPreds[op], Ty: common.IR(), A: x.op, B: y.op, Line: int32(pos.Line)})
		} else {
			g.emit(ir.Instr{Op: ir.OpCmp, Dst: dst, Pred: preds[pickIdx(common.Unsigned)], Ty: common.IR(), A: x.op, B: y.op, Line: int32(pos.Line)})
		}
		return g.boolToInt(ir.Reg(dst, ir.I1)), nil
	}

	// Shifts keep the promoted left-operand type.
	if op == "<<" || op == ">>" {
		x = g.promote(x)
		y = g.mustConvert(g.promote(y), x.ty)
		ops := intBinOps[op]
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: x.ty.IR(), Bin: ops[pickIdx(x.ty.Unsigned)], A: x.op, B: y.op, Line: int32(pos.Line)})
		return value{op: ir.Reg(dst, x.ty.IR()), ty: x.ty}, nil
	}

	common := usualArith(xt, yt)
	x, y = g.mustConvert(x, common), g.mustConvert(y, common)
	dst := g.f.NewReg()
	if common.Kind == CFloat {
		bop, ok := floatBinOps[op]
		if !ok {
			return value{}, g.cg.errAt(pos, "invalid float operator %q", op)
		}
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: common.IR(), Bin: bop, A: x.op, B: y.op, Line: int32(pos.Line)})
	} else {
		ops, ok := intBinOps[op]
		if !ok {
			return value{}, g.cg.errAt(pos, "invalid operator %q", op)
		}
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: common.IR(), Bin: ops[pickIdx(common.Unsigned)], A: x.op, B: y.op, Line: int32(pos.Line)})
	}
	return value{op: ir.Reg(dst, common.IR()), ty: common}, nil
}

func pickIdx(unsigned bool) int {
	if unsigned {
		return 1
	}
	return 0
}

func (g *fnGen) pointerBinary(op string, x, y value, pos Pos) (value, error) {
	xt, yt := x.ty.Decay(), y.ty.Decay()
	switch op {
	case "+":
		p, i := x, y
		if yt.Kind == CPtr {
			p, i = y, x
		}
		i = g.mustConvert(i, tyLong)
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, Addr: p.op, Stride: p.ty.Decay().Elem.Size(), A: i.op, Line: int32(pos.Line)})
		return value{op: ir.Reg(dst, ir.BytePtr), ty: p.ty.Decay()}, nil
	case "-":
		if yt.Kind != CPtr { // ptr - int
			i := g.mustConvert(y, tyLong)
			neg := g.f.NewReg()
			g.emit(ir.Instr{Op: ir.OpBin, Dst: neg, Ty: ir.I64, Bin: ir.Sub, A: ir.ConstInt(0, ir.I64), B: i.op})
			dst := g.f.NewReg()
			g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, Addr: x.op, Stride: xt.Elem.Size(), A: ir.Reg(neg, ir.I64), Line: int32(pos.Line)})
			return value{op: ir.Reg(dst, ir.BytePtr), ty: xt}, nil
		}
		// ptr - ptr: byte difference divided by element size.
		xi := g.mustConvert(x, tyLong)
		yi := g.mustConvert(y, tyLong)
		diff := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: diff, Ty: ir.I64, Bin: ir.Sub, A: xi.op, B: yi.op})
		size := xt.Elem.Size()
		if size <= 1 {
			return value{op: ir.Reg(diff, ir.I64), ty: tyLong}, nil
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, Ty: ir.I64, Bin: ir.SDiv, A: ir.Reg(diff, ir.I64), B: ir.ConstInt(size, ir.I64)})
		return value{op: ir.Reg(dst, ir.I64), ty: tyLong}, nil
	case "==", "!=", "<", "<=", ">", ">=":
		// Compare as addresses. Integer operands (e.g. NULL as 0) convert.
		if xt.Kind != CPtr {
			x = g.mustConvert(x, yt)
		}
		if yt.Kind != CPtr {
			y = g.mustConvert(y, xt)
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpCmp, Dst: dst, Pred: cmpPreds[op][1], Ty: ir.BytePtr, A: x.op, B: y.op, Line: int32(pos.Line)})
		return g.boolToInt(ir.Reg(dst, ir.I1)), nil
	}
	return value{}, g.cg.errAt(pos, "invalid pointer operation %q", op)
}

func (g *fnGen) assign(v *Assign) (value, error) {
	addr, lty, err := g.addr(v.L)
	if err != nil {
		return value{}, err
	}
	if v.Op == "=" {
		r, err := g.expr(v.R)
		if err != nil {
			return value{}, err
		}
		if lty.Kind == CStruct {
			// Struct assignment copies the object with the memcpy intrinsic;
			// engines implement it with their own (checked or raw) memory ops.
			g.cg.ensureBuiltin(BuiltinMemcpy, &ir.FuncType{Ret: ir.Void, Params: []ir.Type{ir.BytePtr, ir.BytePtr, ir.I64}})
			g.emit(ir.Instr{
				Op: ir.OpCall, Dst: -1, Ty: ir.Void, Ext: &ir.Ext{
					Callee: ir.FuncRef(BuiltinMemcpy),
					Args: []ir.Operand{
						withTy(addr, ir.BytePtr),
						withTy(r.op, ir.BytePtr),
						withTy(ir.ConstInt(lty.Size(), ir.I64), ir.I64),
					},
					FixedArgs: 3,
				},
				Line: int32(v.Pos.Line),
			})
			return value{op: addr, ty: lty}, nil
		}
		r, err = g.convert(r, lty, v.Pos)
		if err != nil {
			return value{}, err
		}
		g.emit(ir.Instr{Op: ir.OpStore, Ty: lty.Decay().IR(), A: r.op, Addr: addr, Line: int32(v.Pos.Line)})
		return r, nil
	}
	// Compound assignment: load, combine, store.
	old, err := g.loadOrDecay(addr, lty)
	if err != nil {
		return value{}, err
	}
	r, err := g.expr(v.R)
	if err != nil {
		return value{}, err
	}
	combined, err := g.binaryValues(v.Op[:len(v.Op)-1], old, r, v.Pos)
	if err != nil {
		return value{}, err
	}
	combined, err = g.convert(combined, lty, v.Pos)
	if err != nil {
		return value{}, err
	}
	g.emit(ir.Instr{Op: ir.OpStore, Ty: lty.Decay().IR(), A: combined.op, Addr: addr, Line: int32(v.Pos.Line)})
	return combined, nil
}

func (g *fnGen) ternary(v *Cond) (value, error) {
	cond, err := g.exprCond(v.C)
	if err != nil {
		return value{}, err
	}
	// Determine the result type from both arms.
	tt, err := g.typeOf(v.T)
	if err != nil {
		return value{}, err
	}
	ft, err := g.typeOf(v.F)
	if err != nil {
		return value{}, err
	}
	var resTy *CType
	switch {
	case tt.Decay().Kind == CPtr:
		resTy = tt.Decay()
	case ft.Decay().Kind == CPtr:
		resTy = ft.Decay()
	case tt.Kind == CVoid || ft.Kind == CVoid:
		resTy = tyVoid
	default:
		resTy = usualArith(tt.Decay(), ft.Decay())
	}
	thenB := g.newBlock("ter.then")
	elseB := g.newBlock("ter.else")
	endB := g.newBlock("ter.end")
	var tmp int32
	if resTy.Kind != CVoid {
		tmp = g.alloca(resTy, "")
	}
	g.emit(ir.Instr{Op: ir.OpCondBr, A: cond, Blk0: thenB, Blk1: elseB})
	emitArm := func(blk int32, e Expr) error {
		g.setBlock(blk)
		av, err := g.expr(e)
		if err != nil {
			return err
		}
		if resTy.Kind != CVoid {
			av, err = g.convert(av, resTy, v.Pos)
			if err != nil {
				return err
			}
			g.emit(ir.Instr{Op: ir.OpStore, Ty: resTy.Decay().IR(), A: av.op, Addr: ir.Reg(tmp, ir.BytePtr)})
		}
		g.br(endB)
		return nil
	}
	if err := emitArm(thenB, v.T); err != nil {
		return value{}, err
	}
	if err := emitArm(elseB, v.F); err != nil {
		return value{}, err
	}
	g.setBlock(endB)
	if resTy.Kind == CVoid {
		return value{op: ir.ConstInt(0, ir.I32), ty: tyVoid}, nil
	}
	dst := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, Ty: resTy.Decay().IR(), Addr: ir.Reg(tmp, ir.BytePtr)})
	return value{op: ir.Reg(dst, resTy.Decay().IR()), ty: resTy}, nil
}

func (g *fnGen) call(v *Call) (value, error) {
	var callee ir.Operand
	var sig *CFuncInfo

	if id, ok := v.Fn.(*Ident); ok && g.lookup(id.Name) == nil {
		if s, found := g.cg.funcs.Get(id.Name); found {
			sig = s
			callee = ir.FuncRef(id.Name)
		}
	}
	if sig == nil {
		fv, err := g.expr(v.Fn)
		if err != nil {
			return value{}, err
		}
		ft := fv.ty.Decay()
		if ft.Kind == CPtr && ft.Elem.Kind == CFunc {
			sig = ft.Elem.Fn
		} else {
			return value{}, g.cg.errAt(v.Pos, "called object is not a function (type %s)", fv.ty)
		}
		callee = fv.op
	}

	if len(v.Args) < len(sig.Params) {
		return value{}, g.cg.errAt(v.Pos, "too few arguments (%d < %d)", len(v.Args), len(sig.Params))
	}
	if len(v.Args) > len(sig.Params) && !sig.Variadic {
		return value{}, g.cg.errAt(v.Pos, "too many arguments (%d > %d)", len(v.Args), len(sig.Params))
	}

	var args []ir.Operand
	for i, ae := range v.Args {
		av, err := g.expr(ae)
		if err != nil {
			return value{}, err
		}
		if i < len(sig.Params) {
			av, err = g.convert(av, sig.Params[i], v.Pos)
			if err != nil {
				return value{}, err
			}
		} else {
			// Default argument promotions for variadic arguments.
			switch d := av.ty.Decay(); {
			case d.Kind == CFloat && d.Bits == 32:
				av = g.mustConvert(av, tyDouble)
			case d.Kind == CInt && d.Bits < 32:
				av = g.mustConvert(av, tyInt)
			}
		}
		args = append(args, withTy(av.op, av.ty.Decay().IR()))
	}

	retTy := sig.Ret
	dst := int32(-1)
	if retTy.Kind != CVoid {
		dst = g.f.NewReg()
	}
	g.emit(ir.Instr{
		Op: ir.OpCall, Dst: dst, Ty: retTy.IR(),
		Ext:  &ir.Ext{Callee: callee, Args: args, FixedArgs: len(sig.Params)},
		Line: int32(v.Pos.Line),
	})
	if retTy.Kind == CVoid {
		return value{op: ir.ConstInt(0, ir.I32), ty: tyVoid}, nil
	}
	return value{op: ir.Reg(dst, retTy.IR()), ty: retTy}, nil
}

// typeOf computes an expression's C type without emitting code. It covers
// the forms that appear under sizeof and in ternary arms.
func (g *fnGen) typeOf(e Expr) (*CType, error) {
	switch v := e.(type) {
	case *IntLit:
		if v.Long || v.V > 0x7fffffff {
			return pick(v.Unsigned, tyULong, tyLong), nil
		}
		return pick(v.Unsigned, tyUInt, tyInt), nil
	case *FloatLit:
		return pick(v.Single, tyFloat, tyDouble), nil
	case *StrLit:
		return arrayOf(tyChar, int64(len(v.S))+1), nil
	case *Ident:
		if l := g.lookup(v.Name); l != nil {
			return l.ty, nil
		}
		if ty, ok := g.cg.globals.Get(v.Name); ok {
			return ty, nil
		}
		if sig, ok := g.cg.funcs.Get(v.Name); ok {
			return &CType{Kind: CFunc, Fn: sig}, nil
		}
		return nil, g.cg.errAt(v.Pos, "use of undeclared identifier %q", v.Name)
	case *Unary:
		switch v.Op {
		case "&":
			t, err := g.typeOf(v.X)
			if err != nil {
				return nil, err
			}
			return ptrTo(t), nil
		case "*":
			t, err := g.typeOf(v.X)
			if err != nil {
				return nil, err
			}
			t = t.Decay()
			if t.Kind != CPtr {
				return nil, g.cg.errAt(v.Pos, "cannot dereference %s", t)
			}
			return t.Elem, nil
		case "!":
			return tyInt, nil
		default:
			t, err := g.typeOf(v.X)
			if err != nil {
				return nil, err
			}
			if t.Kind == CInt && t.Bits < 32 {
				return tyInt, nil
			}
			return t, nil
		}
	case *Binary:
		switch v.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return tyInt, nil
		case ",":
			return g.typeOf(v.Y)
		}
		xt, err := g.typeOf(v.X)
		if err != nil {
			return nil, err
		}
		yt, err := g.typeOf(v.Y)
		if err != nil {
			return nil, err
		}
		xd, yd := xt.Decay(), yt.Decay()
		if xd.Kind == CPtr && yd.Kind == CPtr {
			return tyLong, nil // ptr - ptr
		}
		if xd.Kind == CPtr {
			return xd, nil
		}
		if yd.Kind == CPtr {
			return yd, nil
		}
		return usualArith(xd, yd), nil
	case *Assign:
		return g.typeOf(v.L)
	case *Cond:
		return g.typeOf(v.T)
	case *Call:
		if id, ok := v.Fn.(*Ident); ok {
			if sig, found := g.cg.funcs.Get(id.Name); found {
				return sig.Ret, nil
			}
		}
		t, err := g.typeOf(v.Fn)
		if err != nil {
			return nil, err
		}
		t = t.Decay()
		if t.Kind == CPtr && t.Elem.Kind == CFunc {
			return t.Elem.Fn.Ret, nil
		}
		return tyInt, nil
	case *Index:
		t, err := g.typeOf(v.X)
		if err != nil {
			return nil, err
		}
		t = t.Decay()
		if t.Kind != CPtr {
			return nil, g.cg.errAt(v.Pos, "subscript of non-pointer")
		}
		return t.Elem, nil
	case *Member:
		t, err := g.typeOf(v.X)
		if err != nil {
			return nil, err
		}
		if v.Arrow {
			t = t.Decay()
			if t.Kind != CPtr {
				return nil, g.cg.errAt(v.Pos, "-> on non-pointer")
			}
			t = t.Elem
		}
		if t.Kind != CStruct {
			return nil, g.cg.errAt(v.Pos, "member access on non-struct %s", t)
		}
		_, fty := t.FieldIndex(v.Name)
		if fty == nil {
			return nil, g.cg.errAt(v.Pos, "%s has no member %q", t, v.Name)
		}
		return fty, nil
	case *CastExpr:
		return v.Ty, nil
	case *SizeofExpr:
		return tyULong, nil
	}
	return nil, fmt.Errorf("cc: cannot determine type of %T", e)
}

func bitsOfIR(t ir.Type) int {
	switch v := t.(type) {
	case *ir.IntType:
		return v.Bits
	case *ir.FloatType:
		return v.Bits
	}
	return 64
}
