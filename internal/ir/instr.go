package ir

import (
	"fmt"
	"math"
)

// Opcode identifies an SIR instruction.
type Opcode uint8

const (
	OpInvalid Opcode = iota
	OpAlloca         // Dst = new stack object of Ty (Count elements when set)
	OpLoad           // Dst = *(Ty*)Addr
	OpStore          // *(Ty*)Addr = A
	OpGEP            // Dst = Addr + A*Stride (byte-granular pointer arithmetic)
	OpBin            // Dst = A <Bin> B, operating on Ty
	OpCmp            // Dst(i1) = A <Pred> B, comparing at Ty
	OpCast           // Dst = cast<CastOp>(A) from Ty to Ty2
	OpSelect         // Dst = A(cond i1) ? B : Ext.C
	OpCall           // Dst = Ext.Callee(Ext.Args...)
	OpBr             // goto Blk0
	OpCondBr         // if A goto Blk0 else Blk1
	OpSwitch         // multiway branch on A; Ext.Cases + default Blk0
	OpRet            // return A (or nothing)
	OpUnreachable
)

// BinOp is an arithmetic or bitwise operation for OpBin.
type BinOp uint8

const (
	Add BinOp = iota
	Sub
	Mul
	SDiv
	UDiv
	SRem
	URem
	And
	Or
	Xor
	Shl
	LShr
	AShr
	FAdd
	FSub
	FMul
	FDiv
	FRem
)

var binNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", SDiv: "sdiv", UDiv: "udiv",
	SRem: "srem", URem: "urem", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", LShr: "lshr", AShr: "ashr",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FRem: "frem",
}

func (b BinOp) String() string { return binNames[b] }

// IsFloatOp reports whether the operation works on floating-point values.
func (b BinOp) IsFloatOp() bool { return b >= FAdd }

// Pred is a comparison predicate for OpCmp. Integer predicates follow LLVM
// naming (signed/unsigned); float predicates are ordered comparisons.
type Pred uint8

const (
	Eq Pred = iota
	Ne
	Slt
	Sle
	Sgt
	Sge
	Ult
	Ule
	Ugt
	Uge
	FOeq
	FOne
	FOlt
	FOle
	FOgt
	FOge
)

var predNames = [...]string{
	Eq: "eq", Ne: "ne", Slt: "slt", Sle: "sle", Sgt: "sgt", Sge: "sge",
	Ult: "ult", Ule: "ule", Ugt: "ugt", Uge: "uge",
	FOeq: "oeq", FOne: "one", FOlt: "olt", FOle: "ole", FOgt: "ogt", FOge: "oge",
}

func (p Pred) String() string { return predNames[p] }

// IsFloatPred reports whether the predicate compares floating-point values.
func (p Pred) IsFloatPred() bool { return p >= FOeq }

// CastOp is a conversion operation for OpCast.
type CastOp uint8

const (
	Trunc CastOp = iota
	ZExt
	SExt
	FPTrunc
	FPExt
	FPToSI
	FPToUI
	SIToFP
	UIToFP
	PtrToInt
	IntToPtr
	Bitcast
)

var castNames = [...]string{
	Trunc: "trunc", ZExt: "zext", SExt: "sext", FPTrunc: "fptrunc",
	FPExt: "fpext", FPToSI: "fptosi", FPToUI: "fptoui", SIToFP: "sitofp",
	UIToFP: "uitofp", PtrToInt: "ptrtoint", IntToPtr: "inttoptr", Bitcast: "bitcast",
}

func (c CastOp) String() string { return castNames[c] }

// OperandKind discriminates Operand.
type OperandKind uint8

const (
	OperNone OperandKind = iota
	OperReg              // virtual register
	OperConstInt
	OperConstFloat
	OperGlobal // address of a module global
	OperFunc   // address of a function
	OperNull   // the null pointer
)

// Operand is an instruction input: a register, an immediate constant, or a
// symbol address. Ty records the operand's type as known to the front end.
// An integer and a float constant share one 64-bit payload: Int holds the
// integer value, or the float's IEEE-754 bits, which Flt reads.
type Operand struct {
	Kind OperandKind
	Reg  int32
	Int  int64  // OperConstInt: value, sign-extended to 64 bits; OperConstFloat: the bits
	Sym  string // OperGlobal / OperFunc
	Ty   Type
}

// Flt returns an OperConstFloat operand's value.
func (o Operand) Flt() float64 { return math.Float64frombits(uint64(o.Int)) }

// Reg returns a register operand.
func Reg(r int32, ty Type) Operand { return Operand{Kind: OperReg, Reg: r, Ty: ty} }

// ConstInt returns an integer-constant operand.
func ConstInt(v int64, ty Type) Operand { return Operand{Kind: OperConstInt, Int: v, Ty: ty} }

// ConstFloat returns a float-constant operand.
func ConstFloat(v float64, ty Type) Operand {
	return Operand{Kind: OperConstFloat, Int: int64(math.Float64bits(v)), Ty: ty}
}

// GlobalRef returns an operand holding the address of a module global.
func GlobalRef(sym string) Operand { return Operand{Kind: OperGlobal, Sym: sym, Ty: BytePtr} }

// FuncRef returns an operand holding the address of a function.
func FuncRef(sym string) Operand { return Operand{Kind: OperFunc, Sym: sym, Ty: BytePtr} }

// Null returns the null-pointer operand.
func Null() Operand { return Operand{Kind: OperNull, Ty: BytePtr} }

// IsConst reports whether the operand is an immediate (including null and
// symbol addresses, which are link-time constants).
func (o Operand) IsConst() bool { return o.Kind != OperReg && o.Kind != OperNone }

func (o Operand) String() string {
	switch o.Kind {
	case OperReg:
		return fmt.Sprintf("%%r%d", o.Reg)
	case OperConstInt:
		return fmt.Sprintf("%d", o.Int)
	case OperConstFloat:
		f := o.Flt()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return fmt.Sprintf("%.1f", f)
		}
		return fmt.Sprintf("%g", f)
	case OperGlobal:
		return "@" + o.Sym
	case OperFunc:
		return "&" + o.Sym
	case OperNull:
		return "null"
	}
	return "<none>"
}

// SwitchCase is one arm of an OpSwitch.
type SwitchCase struct {
	Val int64
	Blk int32
}

// Instr is a single SIR instruction. One struct covers all opcodes; unused
// fields are zero. Dst is -1 when the instruction produces no value.
//
// The struct holds inline only what most opcodes read: narrow opcode and
// selector bytes, the destination, branch targets, the source line, the
// operation types and the three generic operands. The fields only calls,
// switches, allocas, checked casts and selects use live in Ext, which is
// nil for every other instruction. A copied Instr shares its Ext with the
// original; Func.Clone gives every copied instruction its own.
type Instr struct {
	Op   Opcode
	Bin  BinOp
	Pred Pred
	Cast CastOp
	Dst  int32

	Blk0, Blk1 int32
	Line       int32 // source line, for diagnostics

	Ty  Type // operation type: loaded/stored type, alloca element type, bin/cmp type, cast source type
	Ty2 Type // cast destination type

	A, B Operand // generic inputs (store value in A; select arms in B, Ext.C)
	Addr Operand // load/store/gep base pointer

	Stride int64 // gep: byte stride multiplied with index A

	Ext *Ext
}

// Ext is the out-of-line part of an Instr: the fields of calls, switches,
// allocas, checked casts and selects.
type Ext struct {
	C Operand // select: the false arm

	Callee    Operand
	Args      []Operand
	FixedArgs int // number of fixed (non-variadic) parameters at this call site

	Cases []SwitchCase

	Name string // alloca: source variable name, for diagnostics

	// CType records the declared C type behind the instruction, when the
	// front end knows one: the element type of an alloca, or the target
	// pointee of a checked pointer cast. It rides through print/parse as a
	// "!ctype" suffix (like "!line") and is what the engines' dynamic
	// type-identity checks key on. Empty means "no declared type" — the
	// instruction behaves exactly as before the type plane existed.
	CType string
}

// clone returns a copy of x that shares no slice with it, or nil for nil.
func (x *Ext) clone() *Ext {
	if x == nil {
		return nil
	}
	c := *x
	c.Args = append([]Operand(nil), x.Args...)
	c.Cases = append([]SwitchCase(nil), x.Cases...)
	return &c
}

// CType returns the instruction's declared C type (Ext.CType), or "".
func (in *Instr) CType() string { return in.ext().CType }

// Name returns an alloca's source variable name (Ext.Name), or "".
func (in *Instr) Name() string { return in.ext().Name }

// noExt is what ext reads when an instruction has no Ext.
var noExt Ext

// ext returns the instruction's Ext for reading: an empty one when it has
// none. Nothing may write through the result.
func (in *Instr) ext() *Ext {
	if in.Ext == nil {
		return &noExt
	}
	return in.Ext
}

// writeExt returns the instruction's Ext for writing, allocating it first
// when there is none.
func (in *Instr) writeExt() *Ext {
	if in.Ext == nil {
		in.Ext = &Ext{}
	}
	return in.Ext
}

// Operands calls fn with a pointer to each operand the instruction holds,
// inline and out of line, in a fixed order: A, B, C, Addr, Callee, then
// Args. Every pass that reads or rewrites operands goes through it, so
// none can miss one. Operands of kind OperNone are included.
func (in *Instr) Operands(fn func(*Operand)) {
	fn(&in.A)
	fn(&in.B)
	x := in.Ext
	if x != nil {
		fn(&x.C)
	}
	fn(&in.Addr)
	if x != nil {
		fn(&x.Callee)
		for i := range x.Args {
			fn(&x.Args[i])
		}
	}
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator (br, condbr, switch, ret, unreachable).
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// IsTerminator reports whether op ends a basic block.
func IsTerminator(op Opcode) bool {
	switch op {
	case OpBr, OpCondBr, OpSwitch, OpRet, OpUnreachable:
		return true
	}
	return false
}
