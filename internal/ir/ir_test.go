package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	tests := []struct {
		ty    Type
		size  int64
		align int64
	}{
		{I1, 1, 1},
		{I8, 1, 1},
		{I16, 2, 2},
		{I32, 4, 4},
		{I48, 6, 8},
		{I64, 8, 8},
		{F32, 4, 4},
		{F64, 8, 8},
		{BytePtr, 8, 8},
		{&ArrayType{Elem: I32, Len: 10}, 40, 4},
		{&ArrayType{Elem: I8, Len: 3}, 3, 1},
	}
	for _, tt := range tests {
		if got := tt.ty.Size(); got != tt.size {
			t.Errorf("%s: size = %d, want %d", tt.ty, got, tt.size)
		}
		if got := tt.ty.Align(); got != tt.align {
			t.Errorf("%s: align = %d, want %d", tt.ty, got, tt.align)
		}
	}
}

func TestStructLayout(t *testing.T) {
	// struct { char c; int i; char c2; double d; } — SysV AMD64 layout.
	st := NewStruct("s", []Field{
		{Name: "c", Ty: I8},
		{Name: "i", Ty: I32},
		{Name: "c2", Ty: I8},
		{Name: "d", Ty: F64},
	})
	wantOff := []int64{0, 4, 8, 16}
	for i, w := range wantOff {
		if st.Fields[i].Offset != w {
			t.Errorf("field %d offset = %d, want %d", i, st.Fields[i].Offset, w)
		}
	}
	if st.Size() != 24 {
		t.Errorf("size = %d, want 24", st.Size())
	}
	if st.Align() != 8 {
		t.Errorf("align = %d, want 8", st.Align())
	}
}

func TestStructFieldAt(t *testing.T) {
	st := NewStruct("s", []Field{
		{Name: "a", Ty: I32},
		{Name: "b", Ty: I32},
		{Name: "arr", Ty: &ArrayType{Elem: I8, Len: 8}},
	})
	cases := []struct {
		off  int64
		want int
	}{
		{0, 0}, {3, 0}, {4, 1}, {7, 1}, {8, 2}, {15, 2}, {16, -1}, {-1, -1},
	}
	for _, c := range cases {
		if got := st.FieldAt(c.off); got != c.want {
			t.Errorf("FieldAt(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestTypesEqual(t *testing.T) {
	if !TypesEqual(I32, IntN(32)) {
		t.Error("i32 != i32")
	}
	if TypesEqual(I32, I64) {
		t.Error("i32 == i64")
	}
	if !TypesEqual(Ptr(I32), Ptr(I8)) {
		t.Error("pointers should compare equal regardless of pointee")
	}
	a := &ArrayType{Elem: I32, Len: 4}
	b := &ArrayType{Elem: I32, Len: 4}
	c := &ArrayType{Elem: I32, Len: 5}
	if !TypesEqual(a, b) || TypesEqual(a, c) {
		t.Error("array equality broken")
	}
}

func TestAlignUpProperty(t *testing.T) {
	f := func(v uint16, aExp uint8) bool {
		a := int64(1) << (aExp % 4) // 1,2,4,8
		r := alignUp(int64(v), a)
		return r >= int64(v) && r%a == 0 && r-int64(v) < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

const roundTripSrc = `module "rt"
struct %point { i32 x, f64 y }
global @msg const [6 x i8] = bytes "hello\x00"
global @zeros [7 x i32] = zero
global @tab [2 x ptr] = array [addr @msg + 0, addr &main]
declare @putchar fn(i32) i32
func @main fn(i32, ptr) i32 regs 10 names(argc, argv) {
entry:
  %r2 = alloca [10 x i32] name "arr"
  %r3 = gep %r2, 4, %r0
  store i32 5, %r3
  %r4 = load i32, %r3
  %r5 = add i32 %r4, 1
  %r6 = cmp slt i32 %r5, 10
  condbr %r6, then, done
then:
  %r7 = call i32 &putchar(i32 65) fixed 1
  %r8 = sitofp i32 %r7 to f64
  %r9 = select %r6, i32 1, 2
  switch i32 %r9, default done [1: then, 2: done]
done:
  ret i32 0
}
`

func TestParsePrintRoundTrip(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	out1 := Print(m)
	m2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out1)
	}
	out2 := Print(m2)
	if out1 != out2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		`module "x" bogus`,
		`module "x" global @g i32 =`,
		`module "x" func @f fn() void regs 0 { entry: br nowhere }`,
		`module "x" struct %s { i32 }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestVerifyCatchesBadRegister(t *testing.T) {
	m := NewModule("v")
	f := &Func{Name: "f", Sig: &FuncType{Ret: Void}, NumRegs: 1}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpBin, Dst: 0, Ty: I32, Bin: Add, A: Reg(5, I32), B: ConstInt(1, I32)},
		{Op: OpRet},
	}}}
	m.AddFunc(f)
	if err := Verify(m); err == nil {
		t.Error("Verify accepted out-of-range register")
	}
}

// TestVerifyExtension pins what the extension verify skips: base's own
// *Func at the same index, nothing else. It reports a broken function the
// extension added as Verify does; it skips a broken base function, which is
// why a base must be verified in full when it is built; and it checks a
// function that replaced a base slot, though that keeps the slot's name.
func TestVerifyExtension(t *testing.T) {
	fn := func(name string, reg int32) *Func {
		f := &Func{Name: name, Sig: &FuncType{Ret: Void}, NumRegs: 1}
		f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
			{Op: OpBin, Dst: 0, Ty: I32, Bin: Add, A: Reg(reg, I32), B: ConstInt(1, I32)},
			{Op: OpRet},
		}}}
		return f
	}
	good := func(name string) *Func { return fn(name, 0) }
	broken := func(name string) *Func { return fn(name, 5) }

	base := NewModule("base")
	base.AddFunc(good("lib"))
	ext := base.Extend()
	ext.AddFunc(broken("user"))
	want := Verify(ext)
	if err := VerifyExtension(ext, base); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("a broken added function: VerifyExtension says %v, Verify %v; want the same error", err, want)
	}

	replaced := base.Extend()
	replaced.AddFunc(broken("lib"))
	if replaced.Func("lib") == base.Func("lib") {
		t.Fatal("the definition did not replace the slot")
	}
	if err := VerifyExtension(replaced, base); err == nil || !strings.Contains(err.Error(), "func lib ") {
		t.Errorf("a broken definition replacing a base slot: VerifyExtension says %v, want an error naming lib", err)
	}

	brokenBase := NewModule("base")
	brokenBase.AddFunc(broken("lib"))
	if Verify(brokenBase) == nil {
		t.Fatal("Verify accepted the broken base")
	}
	ext = brokenBase.Extend()
	ext.AddFunc(good("user"))
	if err := VerifyExtension(ext, brokenBase); err != nil {
		t.Errorf("VerifyExtension checked a function it shares with its base: %v", err)
	}
	if Verify(ext) == nil {
		t.Error("Verify accepted an extension of a broken base")
	}
}

// TestVerifyInitializerFitsType: a global's initializer must fit its type
// at every level, whether the front end built it or it was parsed from IR
// text (where aggregate constants carry no type of their own). An
// exact-fit byte string without its NUL stays legal.
func TestVerifyInitializerFitsType(t *testing.T) {
	for _, tc := range []struct {
		global string
		ok     bool
	}{
		{`global @c [3 x i32] = array [int 1, int 2, int 3]`, true},
		{`global @c [3 x i32] = array [int 1, int 2, int 3, int 4]`, false},
		{`global @m [2 x [2 x i32]] = array [array [int 1, int 2], array [int 4]]`, true},
		{`global @m [2 x [2 x i32]] = array [array [int 1, int 2, int 3], array [int 4, int 5]]`, false},
		{`global @s [2 x i8] = bytes "ab"`, true},
		{`global @s [2 x i8] = bytes "abcdef\x00"`, false},
		{`global @p %pair = fields {int 1, int 2, int 3}`, false},
		{`global @q i32 = array [int 1]`, false},
	} {
		m, err := Parse("module \"v\"\nstruct %pair { i32 a, i32 b }\n" + tc.global + "\n")
		if err != nil {
			t.Fatalf("parse %s: %v", tc.global, err)
		}
		if err := Verify(m); (err == nil) != tc.ok {
			t.Errorf("%s: Verify says %v, want ok=%v", tc.global, err, tc.ok)
		}
	}

	// The front end's form, typed constants included.
	m := NewModule("v")
	at := &ArrayType{Elem: I32, Len: 3}
	m.AddGlobal(&Global{Name: "count", Ty: at, Init: ConstArrayVal{Ty: at, Elems: []Const{
		ConstIntVal{Ty: I32, V: 1}, ConstIntVal{Ty: I32, V: 2}, ConstIntVal{Ty: I32, V: 3}, ConstIntVal{Ty: I32, V: 4},
	}}})
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "global count") {
		t.Errorf("Verify says %v, want an error naming global count", err)
	}
	// VerifyExtension checks the extension's own globals, not its base's.
	ext := m.Extend()
	if err := VerifyExtension(ext, m); err != nil {
		t.Errorf("VerifyExtension checked a global it shares with its base: %v", err)
	}
	ext.AddGlobal(&Global{Name: "user", Ty: &ArrayType{Elem: I8, Len: 2}, Init: ConstBytes{Data: []byte("abc")}})
	if err := VerifyExtension(ext, m); err == nil || !strings.Contains(err.Error(), "global user") || strings.Contains(err.Error(), "global count") {
		t.Errorf("VerifyExtension says %v, want an error naming only global user", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("v")
	f := &Func{Name: "f", Sig: &FuncType{Ret: Void}, NumRegs: 1}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpBin, Dst: 0, Ty: I32, Bin: Add, A: ConstInt(1, I32), B: ConstInt(1, I32)},
	}}}
	m.AddFunc(f)
	if err := Verify(m); err == nil {
		t.Error("Verify accepted block without terminator")
	}
}

// TestModuleCloneIsDeep mutates every field of a clone's instructions that
// lives out of line, in Ext, and checks that the original is unchanged:
// passes rewrite clones in place while the original stays shared.
func TestModuleCloneIsDeep(t *testing.T) {
	m, err := Parse(strings.Replace(roundTripSrc, `name "arr"`, `name "arr" !ctype "int[10]"`, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := Print(m)
	c := m.Clone()
	find := func(f *Func, op Opcode) *Instr {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == op {
					return &b.Instrs[i]
				}
			}
		}
		t.Fatalf("no opcode %d in %s", op, f.Name)
		return nil
	}
	main := c.Func("main")
	alloca := find(main, OpAlloca)
	alloca.Ext.Name = "mutated"
	alloca.Ext.CType = "long[10]"
	call := find(main, OpCall)
	call.Ext.Callee = FuncRef("main")
	call.Ext.Args[0] = ConstInt(66, I32)
	call.Ext.Args = append(call.Ext.Args, ConstInt(1, I32))
	call.Ext.FixedArgs = 2
	find(main, OpSelect).Ext.C = ConstInt(3, I32)
	sw := find(main, OpSwitch)
	sw.Ext.Cases[0] = SwitchCase{Val: 9, Blk: 2}
	sw.Ext.Cases = append(sw.Ext.Cases, SwitchCase{Val: 4, Blk: 1})
	if after := Print(m); after != before {
		t.Errorf("mutating a clone's out-of-line fields changed the original:\n%s\n---\n%s", before, after)
	}
	if Print(c) == before {
		t.Error("the mutations did not reach the clone")
	}
	if c.Func("putchar") == nil || !c.Func("putchar").IsDecl {
		t.Error("Clone lost declaration")
	}
}

func TestConstZeroDetection(t *testing.T) {
	cases := []struct {
		c    Const
		want bool
	}{
		{nil, true},
		{ConstZero{}, true},
		{ConstIntVal{V: 0}, true},
		{ConstIntVal{V: 3}, false},
		{ConstBytes{Data: []byte{0, 0}}, true},
		{ConstBytes{Data: []byte("a")}, false},
		{ConstArrayVal{Elems: []Const{ConstIntVal{V: 0}, ConstIntVal{V: 1}}}, false},
	}
	for i, c := range cases {
		if got := ZeroConst(c.c); got != c.want {
			t.Errorf("case %d: ZeroConst = %v, want %v", i, got, c.want)
		}
	}
}

func TestFuncHelpers(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("main")
	if f.BlockIndex("then") != 1 || f.BlockIndex("nope") != -1 {
		t.Error("BlockIndex wrong")
	}
	if f.InstrCount() == 0 {
		t.Error("InstrCount = 0")
	}
	if m.FuncIndex("main") < 0 || m.FuncIndex("ghost") != -1 {
		t.Error("FuncIndex wrong")
	}
	if !strings.Contains(PrintFunc(f), "func @main") {
		t.Error("PrintFunc missing header")
	}
}

func TestModuleReindex(t *testing.T) {
	m, err := Parse(roundTripSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the first function directly and reindex.
	removed := m.Funcs[0].Name
	m.Funcs = m.Funcs[1:]
	m.Reindex()
	if m.Func(removed) != nil && m.Funcs[0].Name != removed {
		t.Errorf("%s should be gone after reindex", removed)
	}
	for _, f := range m.Funcs {
		if m.FuncIndex(f.Name) < 0 {
			t.Errorf("%s lost its index", f.Name)
		}
	}
}
