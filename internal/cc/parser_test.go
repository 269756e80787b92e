package cc

import (
	"fmt"
	"strings"
	"testing"
)

// parse compiles a snippet through preprocessor + parser.
func parse(t *testing.T, src string) *Program {
	t.Helper()
	u, err := preprocessed("t.c", map[string]string{"t.c": src}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Parse(); err != nil {
		t.Fatal(err)
	}
	return u.prog
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	u, err := preprocessed("t.c", map[string]string{"t.c": src}, nil)
	if err != nil {
		return err
	}
	return u.Parse()
}

func TestParseFunctionDef(t *testing.T) {
	prog := parse(t, "int add(int a, int b) { return a + b; }")
	if len(prog.Decls) != 1 {
		t.Fatalf("decls = %d", len(prog.Decls))
	}
	fd, ok := prog.Decls[0].(*FuncDecl)
	if !ok {
		t.Fatalf("not a FuncDecl: %T", prog.Decls[0])
	}
	if fd.Name != "add" || len(fd.Sig.Params) != 2 || fd.Body == nil {
		t.Errorf("bad decl: %+v", fd)
	}
	if fd.Sig.Ret != tyInt {
		t.Errorf("ret type = %v", fd.Sig.Ret)
	}
}

func TestParseDeclaratorShapes(t *testing.T) {
	cases := []struct {
		src  string
		desc string
	}{
		{"int x;", "int"},
		{"int *p;", "int*"},
		{"int **pp;", "int**"},
		{"int a[10];", "int[10]"},
		{"int m[2][3];", "int[3][2]"}, // outer dimension first in C syntax
		{"char *names[4];", "char*[4]"},
		{"unsigned long big;", "unsigned long"},
		{"const char *s;", "char*"},
		{"double (*fp)(double);", "function*"},
	}
	for _, c := range cases {
		prog := parse(t, c.src)
		vd, ok := prog.Decls[0].(*VarDecl)
		if !ok {
			t.Errorf("%s: not a VarDecl", c.src)
			continue
		}
		got := vd.Ty.String()
		if got != c.desc {
			t.Errorf("%s: type = %q, want %q", c.src, got, c.desc)
		}
	}
}

func TestParseFunctionPointerDeclarator(t *testing.T) {
	prog := parse(t, "int (*handler)(int, char *);")
	vd := prog.Decls[0].(*VarDecl)
	if vd.Name != "handler" {
		t.Fatalf("name = %q", vd.Name)
	}
	if vd.Ty.Kind != CPtr || vd.Ty.Elem.Kind != CFunc {
		t.Fatalf("type = %v", vd.Ty)
	}
	fn := vd.Ty.Elem.Fn
	if len(fn.Params) != 2 || fn.Ret != tyInt {
		t.Errorf("signature wrong: %+v", fn)
	}
}

func TestParseStructAndTypedef(t *testing.T) {
	prog := parse(t, `
struct point { int x; int y; };
typedef struct point pt;
pt origin;
`)
	found := false
	for _, d := range prog.Decls {
		if vd, ok := d.(*VarDecl); ok && vd.Name == "origin" {
			found = true
			if vd.Ty.Kind != CStruct || vd.Ty.Struct.Name != "point" {
				t.Errorf("origin type = %v", vd.Ty)
			}
		}
	}
	if !found {
		t.Error("origin not declared")
	}
}

func TestParseSelfReferentialStruct(t *testing.T) {
	prog := parse(t, "struct node { int v; struct node *next; }; struct node n;")
	for _, d := range prog.Decls {
		if vd, ok := d.(*VarDecl); ok {
			next := vd.Ty.Struct.Fields[1]
			if next.Ty.Kind != CPtr || next.Ty.Elem.Struct != vd.Ty.Struct {
				t.Error("next should point to the same struct info")
			}
		}
	}
}

// TestParseIncompleteMember pins C11 6.7.2.1p3: a member may not be of an
// incomplete struct type, the struct being defined included, which once
// laid out a struct containing itself until the stack overflowed.
func TestParseIncompleteMember(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"struct node { int v; struct node next; };", `t.c:1: member "next" has incomplete type struct node`},
		{"struct node { struct node next[2]; };", `t.c:1: member "next" has incomplete type struct node[2]`},
		{"struct later;\nunion u { int i;\n  struct later l; };", `t.c:3: member "l" has incomplete type struct later`},
	} {
		if err := parseErr(t, c.src); err == nil || err.Error() != c.want {
			t.Errorf("%q: got error %v, want %q", c.src, err, c.want)
		}
	}
	parse(t, "struct later; struct a { struct later *p; }; struct later { struct a a[2]; };")
}

func TestParseEnumConstantsFold(t *testing.T) {
	prog := parse(t, "enum e { A, B = 10, C }; int arr[C];")
	vd := prog.Decls[len(prog.Decls)-1].(*VarDecl)
	if vd.Ty.Len != 11 {
		t.Errorf("array length = %d, want 11 (C == 11)", vd.Ty.Len)
	}
}

func TestParseArraySizeConstExpr(t *testing.T) {
	prog := parse(t, "int a[4 * 2 + 1];")
	vd := prog.Decls[0].(*VarDecl)
	if vd.Ty.Len != 9 {
		t.Errorf("len = %d", vd.Ty.Len)
	}
}

func TestParseInferArrayLenFromInit(t *testing.T) {
	prog := parse(t, `char s[] = "abc"; int v[] = {1, 2, 3, 4};`)
	s := prog.Decls[0].(*VarDecl)
	v := prog.Decls[1].(*VarDecl)
	if s.Ty.Len != 4 {
		t.Errorf("s len = %d, want 4 (includes NUL)", s.Ty.Len)
	}
	if v.Ty.Len != 4 {
		t.Errorf("v len = %d", v.Ty.Len)
	}
}

// TestParsePrecedence pins the binary operators' precedence and
// associativity: `a OP1 b OP2 c` for every ordered pair of them, and the
// boundaries with unary operators, casts and the conditional operator.
func TestParsePrecedence(t *testing.T) {
	// C's binary operators, from the loosest binding to the tightest.
	levels := [][]string{
		{"||"}, {"&&"}, {"|"}, {"^"}, {"&"}, {"==", "!="},
		{"<", ">", "<=", ">="}, {"<<", ">>"}, {"+", "-"}, {"*", "/", "%"},
	}
	type row struct{ src, want string }
	var rows []row
	for l1, ops1 := range levels {
		for l2, ops2 := range levels {
			for _, op1 := range ops1 {
				for _, op2 := range ops2 {
					src := fmt.Sprintf("a %s b %s c", op1, op2)
					want := fmt.Sprintf("((a %s b) %s c)", op1, op2)
					if l2 > l1 {
						want = fmt.Sprintf("(a %s (b %s c))", op1, op2)
					}
					rows = append(rows, row{src, want})
				}
			}
		}
	}
	if len(rows) != 18*18 {
		t.Fatalf("%d operator pairs, want 18*18", len(rows))
	}
	rows = append(rows,
		row{"2 + 3 * 4", "(2 + (3 * 4))"},
		row{"-a * b", "((-a) * b)"},
		row{"a * -b", "(a * (-b))"},
		row{"!a && b", "((!a) && b)"},
		row{"(int)a + b", "(((int)a) + b)"},
		row{"a + (int)b * c", "(a + (((int)b) * c))"},
		row{"a ? b : c || d", "(a ? b : (c || d))"},
		row{"a || b ? c : d", "((a || b) ? c : d)"},
		row{"a ? b : c ? d : e", "(a ? b : (c ? d : e))"},
		row{"(a + b) * c", "((a + b) * c)"},
	)
	for _, r := range rows {
		prog := parse(t, "int x = "+r.src+";")
		if got := exprString(prog.Decls[0].(*VarDecl).Init); got != r.want {
			t.Errorf("%s: parsed as %s, want %s", r.src, got, r.want)
		}
	}
}

// exprString renders the expressions TestParsePrecedence parses, with
// every operation parenthesized.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return fmt.Sprint(e.V)
	case *Unary:
		return "(" + e.Op + exprString(e.X) + ")"
	case *CastExpr:
		return "((" + e.Ty.String() + ")" + exprString(e.X) + ")"
	case *Binary:
		return "(" + exprString(e.X) + " " + e.Op + " " + exprString(e.Y) + ")"
	case *Cond:
		return "(" + exprString(e.C) + " ? " + exprString(e.T) + " : " + exprString(e.F) + ")"
	}
	return fmt.Sprintf("%T", e)
}

func TestParseErrorsHaveLocations(t *testing.T) {
	cases := []string{
		"int f( { }",
		"int x = ;",
		"void g() { if }",
		"struct { int; } v;",
		"int main() { return 1 }", // missing semicolon before }
	}
	for _, src := range cases {
		err := parseErr(t, src)
		if err == nil {
			t.Errorf("%q parsed without error", src)
			continue
		}
		if !strings.Contains(err.Error(), "t.c:") {
			t.Errorf("%q: error lacks location: %v", src, err)
		}
	}
}

func TestParseVariadicSignature(t *testing.T) {
	prog := parse(t, "int printf(const char *fmt, ...);")
	fd := prog.Decls[0].(*FuncDecl)
	if !fd.Sig.Variadic || len(fd.Sig.Params) != 1 {
		t.Errorf("variadic parse wrong: %+v", fd.Sig)
	}
}

func TestEvalConstExpressions(t *testing.T) {
	p := &Parser{}
	cases := []struct {
		e    Expr
		want int64
	}{
		{&Binary{Op: "+", X: &IntLit{V: 2}, Y: &IntLit{V: 3}}, 5},
		{&Binary{Op: "<<", X: &IntLit{V: 1}, Y: &IntLit{V: 4}}, 16},
		{&Unary{Op: "-", X: &IntLit{V: 7}}, -7},
		{&Unary{Op: "~", X: &IntLit{V: 0}}, -1},
		{&Cond{C: &IntLit{V: 1}, T: &IntLit{V: 10}, F: &IntLit{V: 20}}, 10},
		{&Binary{Op: "&&", X: &IntLit{V: 2}, Y: &IntLit{V: 0}}, 0},
	}
	for i, c := range cases {
		got, err := p.evalConst(c.e)
		if err != nil || got != c.want {
			t.Errorf("case %d: got (%d, %v), want %d", i, got, err, c.want)
		}
	}
	if _, err := p.evalConst(&Binary{Op: "/", X: &IntLit{V: 1}, Y: &IntLit{V: 0}}); err == nil {
		t.Error("const division by zero should error")
	}
}

func TestTruncToBits(t *testing.T) {
	cases := []struct {
		v        int64
		bits     int
		unsigned bool
		want     int64
	}{
		{0x1ff, 8, false, -1},
		{0x1ff, 8, true, 0xff},
		{-1, 16, true, 0xffff},
		{0x80, 8, false, -128},
		{123, 64, false, 123},
	}
	for _, c := range cases {
		if got := truncToBits(c.v, c.bits, c.unsigned); got != c.want {
			t.Errorf("truncToBits(%#x,%d,%v) = %d, want %d", c.v, c.bits, c.unsigned, got, c.want)
		}
	}
}

func TestCTypeProperties(t *testing.T) {
	if tyInt.Size() != 4 || tyLong.Size() != 8 || tyChar.Size() != 1 {
		t.Error("basic sizes wrong")
	}
	arr := arrayOf(tyInt, 10)
	if arr.Size() != 40 || arr.Decay().Kind != CPtr {
		t.Error("array size/decay wrong")
	}
	if !Compatible(tyInt, tyDouble) || !Compatible(tyCharPtr, tyVoidPtr) {
		t.Error("compatibility too strict")
	}
	if usualArith(tyInt, tyDouble) != tyDouble {
		t.Error("usual arithmetic conversion to double failed")
	}
	if got := usualArith(tyUInt, tyInt); got != tyUInt {
		t.Errorf("int+uint should be uint, got %v", got)
	}
	if got := usualArith(tyUInt, tyLong); got != tyLong {
		t.Errorf("uint+long should be long, got %v", got)
	}
	if got := usualArith(tyChar, tyChar); got != tyInt {
		t.Errorf("char+char should promote to int, got %v", got)
	}
}
