package ir

import (
	"fmt"
	"strings"
	"testing"
)

// genRNG is a deterministic generator for randomized round-trip tests.
type genRNG struct{ s uint64 }

func (r *genRNG) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 15
}

func (r *genRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randOperand produces a random non-register operand or one of the given regs.
func randOperand(r *genRNG, regs int) Operand {
	switch r.intn(4) {
	case 0:
		return ConstInt(int64(r.intn(2000))-1000, I64)
	case 1:
		return ConstFloat(float64(r.intn(100))+0.5, F64)
	default:
		return Reg(int32(r.intn(regs)), I64)
	}
}

// randFunc builds a random but well-formed function: straight-line blocks of
// value ops with a conditional-branch chain ending in ret.
func randFunc(r *genRNG, name string, blocks int) *Func {
	f := &Func{Name: name, Sig: &FuncType{Ret: I64, Params: []Type{I64, I64}}}
	f.NumRegs = 2
	for b := 0; b < blocks; b++ {
		blk := &Block{Name: fmt.Sprintf("b%d", b)}
		n := 1 + r.intn(5)
		for i := 0; i < n; i++ {
			dst := f.NewReg()
			switch r.intn(4) {
			case 0:
				blk.Instrs = append(blk.Instrs, Instr{
					Op: OpBin, Dst: dst, Ty: I64, Bin: BinOp(r.intn(int(Xor) + 1)),
					A: randOperand(r, f.NumRegs), B: randOperand(r, f.NumRegs),
				})
			case 1:
				blk.Instrs = append(blk.Instrs, Instr{
					Op: OpCmp, Dst: dst, Ty: I64, Pred: Pred(r.intn(int(Uge) + 1)),
					A: randOperand(r, f.NumRegs), B: randOperand(r, f.NumRegs),
				})
			case 2:
				blk.Instrs = append(blk.Instrs, Instr{
					Op: OpCast, Dst: dst, Cast: Trunc, Ty: I64, Ty2: I32,
					A: randOperand(r, f.NumRegs),
				})
			default:
				blk.Instrs = append(blk.Instrs, Instr{
					Op: OpSelect, Dst: dst,
					A: randOperand(r, f.NumRegs), Ty: I64,
					B: randOperand(r, f.NumRegs), Ext: &Ext{C: randOperand(r, f.NumRegs)},
				})
			}
		}
		if b == blocks-1 {
			blk.Instrs = append(blk.Instrs, Instr{Op: OpRet, Ty: I64, A: randOperand(r, f.NumRegs)})
		} else if r.intn(2) == 0 {
			blk.Instrs = append(blk.Instrs, Instr{Op: OpBr, Blk0: int32(b + 1)})
		} else {
			blk.Instrs = append(blk.Instrs, Instr{
				Op: OpCondBr, A: randOperand(r, f.NumRegs),
				Blk0: int32(b + 1), Blk1: int32(blocks - 1),
			})
		}
		f.Blocks = append(f.Blocks, blk)
	}
	return f
}

// TestRandomizedRoundTrip generates random modules and checks
// print -> parse -> print is a fixpoint and verification holds.
func TestRandomizedRoundTrip(t *testing.T) {
	r := &genRNG{s: 42}
	for trial := 0; trial < 40; trial++ {
		m := NewModule(fmt.Sprintf("rand%d", trial))
		for fi := 0; fi < 1+r.intn(3); fi++ {
			m.AddFunc(randFunc(r, fmt.Sprintf("f%d", fi), 2+r.intn(4)))
		}
		if err := Verify(m); err != nil {
			t.Fatalf("trial %d: generated module invalid: %v", trial, err)
		}
		text1 := Print(m)
		m2, err := Parse(text1)
		if err != nil {
			t.Fatalf("trial %d: reparse failed: %v\n%s", trial, err, text1)
		}
		text2 := Print(m2)
		if text1 != text2 {
			// Show the first differing line for debuggability.
			l1 := strings.Split(text1, "\n")
			l2 := strings.Split(text2, "\n")
			for i := range l1 {
				if i >= len(l2) || l1[i] != l2[i] {
					t.Fatalf("trial %d: line %d differs:\n  %q\n  %q", trial, i, l1[i], l2[i])
				}
			}
			t.Fatalf("trial %d: texts differ in length", trial)
		}
	}
}

// TestLineMetadataRoundTrip asserts that source-line metadata survives
// print -> parse on every instruction form, including the bin/cast forms
// (which return early in the parser) and terminators. Historically Print
// dropped Line and Parse repointed it at the IR-text token line, so a
// round-tripped module produced diagnostics with wrong line numbers.
func TestLineMetadataRoundTrip(t *testing.T) {
	f := &Func{Name: "f", Sig: &FuncType{Ret: I64, Params: []Type{I64, I64}}}
	f.NumRegs = 2
	b0 := &Block{Name: "b0"}
	b0.Instrs = []Instr{
		{Op: OpAlloca, Dst: f.NewReg(), Ty: I64, Ext: &Ext{Name: "x"}, Line: 2},
		{Op: OpStore, Ty: I64, A: Reg(0, I64), Addr: Reg(2, nil), Line: 3},
		{Op: OpLoad, Dst: f.NewReg(), Ty: I64, Addr: Reg(2, nil), Line: 4},
		{Op: OpBin, Dst: f.NewReg(), Ty: I64, Bin: Add, A: Reg(3, I64), B: Reg(1, I64), Line: 5},
		{Op: OpCast, Dst: f.NewReg(), Cast: Trunc, Ty: I64, Ty2: I32, A: Reg(4, I64), Line: 6},
		{Op: OpCmp, Dst: f.NewReg(), Ty: I64, Pred: Slt, A: Reg(4, I64), B: Reg(1, I64), Line: 7},
		{Op: OpGEP, Dst: f.NewReg(), Addr: Reg(2, nil), Stride: 8, A: Reg(1, I64), Line: 8},
		{Op: OpCall, Dst: f.NewReg(), Ty: I64, Ext: &Ext{Callee: FuncRef("f"),
			Args: []Operand{Reg(4, I64), Reg(1, I64)}, FixedArgs: 2}, Line: 9},
		{Op: OpCondBr, A: Reg(6, I64), Blk0: 1, Blk1: 1, Line: 10},
	}
	b1 := &Block{Name: "b1"}
	b1.Instrs = []Instr{
		{Op: OpRet, Ty: I64, A: Reg(8, I64), Line: 11},
	}
	f.Blocks = []*Block{b0, b1}
	m := NewModule("lines")
	m.AddFunc(f)
	if err := Verify(m); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	text1 := Print(m)
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	f2 := m2.Funcs[0]
	for bi, blk := range f.Blocks {
		for i := range blk.Instrs {
			want := blk.Instrs[i].Line
			got := f2.Blocks[bi].Instrs[i].Line
			if got != want {
				t.Errorf("block %d instr %d: Line = %d after round trip, want %d",
					bi, i, got, want)
			}
		}
	}
	if text2 := Print(m2); text1 != text2 {
		t.Fatalf("print/parse/print not a fixpoint:\n%s\n---\n%s", text1, text2)
	}
	// An instruction without metadata must stay at "unknown" (0), not be
	// repointed at its IR-text line.
	m3, err := Parse("module \"noline\"\nfunc @g fn() i64 regs 0 {\nb0:\n  ret i64 7\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Funcs[0].Blocks[0].Instrs[0].Line; got != 0 {
		t.Fatalf("unannotated instr Line = %d, want 0", got)
	}
}

// TestArithHelpersAgainstGo cross-checks the shared ALU against Go's own
// operators at full width.
func TestArithHelpersAgainstGo(t *testing.T) {
	r := &genRNG{s: 7}
	for i := 0; i < 2000; i++ {
		a := int64(r.next()) - int64(r.next())
		b := int64(r.next()) - int64(r.next())
		if v, ok := EvalIntBin(Add, 64, a, b); !ok || v != a+b {
			t.Fatalf("add: %d", i)
		}
		if v, ok := EvalIntBin(Mul, 64, a, b); !ok || v != a*b {
			t.Fatalf("mul: %d", i)
		}
		if b != 0 {
			if v, ok := EvalIntBin(UDiv, 64, a, b); !ok || v != int64(uint64(a)/uint64(b)) {
				t.Fatalf("udiv: %d", i)
			}
		}
		if EvalIntCmp(Ult, 64, a, b) != (uint64(a) < uint64(b)) {
			t.Fatalf("ult: %d", i)
		}
		if EvalIntCmp(Slt, 64, a, b) != (a < b) {
			t.Fatalf("slt: %d", i)
		}
	}
	// Narrow-width normalization.
	if v, _ := EvalIntBin(Add, 8, 127, 1); v != -128 {
		t.Errorf("i8 overflow = %d", v)
	}
	if v, _ := EvalIntBin(Shl, 16, 1, 15); v != -32768 {
		t.Errorf("i16 shl = %d", v)
	}
	if _, ok := EvalIntBin(SDiv, 32, 5, 0); ok {
		t.Error("division by zero must not be ok")
	}
	if v, _ := EvalIntBin(SDiv, 64, -9223372036854775808, -1); v != -9223372036854775808 {
		t.Error("INT_MIN / -1 should wrap, not panic")
	}
}

// TestEvalCastTable pins down conversion semantics.
func TestEvalCastTable(t *testing.T) {
	cases := []struct {
		op       CastOp
		from, to int
		i        int64
		f        float64
		wantI    int64
		wantF    float64
		isFloat  bool
	}{
		{Trunc, 64, 8, 0x1FF, 0, -1, 0, false},
		{ZExt, 8, 32, -1, 0, 255, 0, false},
		{SExt, 8, 32, -1, 0, -1, 0, false},
		{FPToSI, 64, 32, 0, 3.9, 3, 0, false},
		{FPToSI, 64, 32, 0, -3.9, -3, 0, false},
		{SIToFP, 64, 64, 42, 0, 0, 42.0, true},
		{UIToFP, 8, 64, -1, 0, 0, 255.0, true},
		{FPTrunc, 64, 32, 0, 1.1, 0, float64(float32(1.1)), true},
	}
	for i, c := range cases {
		gi, gf, isF := EvalCast(c.op, c.from, c.to, c.i, c.f)
		if isF != c.isFloat {
			t.Errorf("case %d: isFloat = %v", i, isF)
			continue
		}
		if isF && gf != c.wantF || !isF && gi != c.wantI {
			t.Errorf("case %d (%v): got (%d, %g), want (%d, %g)", i, c.op, gi, gf, c.wantI, c.wantF)
		}
	}
}

// TestPrintDefinesStructsBeforeUse: a struct held by value in another
// struct whose name sorts first (`struct alpha { struct zed inner; }`) is
// printed before it, so the printed module parses back.
func TestPrintDefinesStructsBeforeUse(t *testing.T) {
	m := NewModule("m")
	zed := NewStruct("zed", []Field{{Name: "x", Ty: I32}})
	m.Structs["zed"] = zed
	m.Structs["alpha"] = NewStruct("alpha", []Field{{Name: "inner", Ty: zed}, {Name: "all", Ty: &ArrayType{Elem: zed, Len: 2}}})
	m.Structs["beta"] = NewStruct("beta", []Field{{Name: "k", Ty: I64}})
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("printed module does not parse: %v\n%s", err, text)
	}
	if text2 := Print(m2); text2 != text {
		t.Fatalf("print/parse/print not a fixpoint:\n%s\n---\n%s", text, text2)
	}
	if !strings.Contains(text, "struct %zed { i32 x }\nstruct %alpha {") {
		t.Errorf("zed not printed right before its user alpha:\n%s", text)
	}
}
