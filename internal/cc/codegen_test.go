package cc

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// compileSnippet lowers a self-contained snippet (no libc).
func compileSnippet(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := Compile("t.c", map[string]string{"t.c": src}, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

func fnText(t *testing.T, m *ir.Module, name string) string {
	t.Helper()
	f := m.Func(name)
	if f == nil {
		t.Fatalf("no function %s", name)
	}
	return ir.PrintFunc(f)
}

func TestCodegenArrayIndexStride(t *testing.T) {
	m := compileSnippet(t, `
long pick(long *v, int i) { return v[i]; }
`)
	text := fnText(t, m, "pick")
	if !strings.Contains(text, "gep %r") || !strings.Contains(text, ", 8, ") {
		t.Errorf("expected 8-byte stride gep for long[]:\n%s", text)
	}
}

func TestCodegenStructFieldOffsets(t *testing.T) {
	m := compileSnippet(t, `
struct rec { char tag; double weight; int id; };
int id_of(struct rec *r) { return r->id; }
double w_of(struct rec *r) { return r->weight; }
`)
	// Layout: tag@0, weight@8, id@16.
	if !strings.Contains(fnText(t, m, "id_of"), ", 1, 16") {
		t.Errorf("id offset wrong:\n%s", fnText(t, m, "id_of"))
	}
	if !strings.Contains(fnText(t, m, "w_of"), ", 1, 8") {
		t.Errorf("weight offset wrong:\n%s", fnText(t, m, "w_of"))
	}
}

func TestCodegenSwitchLowering(t *testing.T) {
	m := compileSnippet(t, `
int f(int x) {
  switch (x) {
  case 1: return 10;
  case 5: return 50;
  default: return 0;
  }
}
`)
	text := fnText(t, m, "f")
	if !strings.Contains(text, "switch i64") || !strings.Contains(text, "1:") || !strings.Contains(text, "5:") {
		t.Errorf("switch not lowered to OpSwitch:\n%s", text)
	}
}

func TestCodegenShortCircuitBlocks(t *testing.T) {
	m := compileSnippet(t, `
int g(int v);
int f(int a, int b) { if (a > 0 && g(b)) return 1; return 0; }
`)
	text := fnText(t, m, "f")
	// The RHS call must be in its own block, reached conditionally.
	if strings.Count(text, "condbr") < 2 {
		t.Errorf("&& should produce two conditional branches:\n%s", text)
	}
	if !strings.Contains(text, "sc.rhs") {
		t.Errorf("missing short-circuit blocks:\n%s", text)
	}
}

func TestCodegenVarargsCallFixedCount(t *testing.T) {
	m := compileSnippet(t, `
int printf(const char *fmt, ...);
int f(void) { return printf("%d %d", 1, 2); }
`)
	text := fnText(t, m, "f")
	if !strings.Contains(text, "fixed 1") {
		t.Errorf("variadic call should record 1 fixed arg:\n%s", text)
	}
}

func TestCodegenVarargFloatPromotion(t *testing.T) {
	m := compileSnippet(t, `
int printf(const char *fmt, ...);
int f(float x) { return printf("%f", x); }
`)
	text := fnText(t, m, "f")
	if !strings.Contains(text, "fpext f32") {
		t.Errorf("float vararg must promote to double:\n%s", text)
	}
}

func TestCodegenParamSpill(t *testing.T) {
	m := compileSnippet(t, `
int addr_of(int x) { int *p = &x; return *p; }
`)
	text := fnText(t, m, "addr_of")
	if !strings.Contains(text, `alloca i32 name "x"`) {
		t.Errorf("address-taken parameter must live in an alloca:\n%s", text)
	}
}

func TestCodegenStringLiteralsInterned(t *testing.T) {
	m := compileSnippet(t, `
const char *a(void) { return "shared"; }
const char *b(void) { return "other"; }
`)
	count := 0
	for _, g := range m.Globals {
		if strings.HasPrefix(g.Name, ".str.") {
			count++
			if !g.IsConst {
				t.Errorf("string literal %s not const", g.Name)
			}
		}
	}
	if count != 2 {
		t.Errorf("expected 2 interned strings, got %d", count)
	}
}

func TestCodegenGlobalConstFlag(t *testing.T) {
	m := compileSnippet(t, `
const int ro[2] = {1, 2};
int rw[2] = {3, 4};
`)
	if g := m.Global("ro"); g == nil || !g.IsConst {
		t.Error("const global must carry IsConst")
	}
	if g := m.Global("rw"); g == nil || g.IsConst {
		t.Error("mutable global must not carry IsConst")
	}
}

func TestCodegenStructAssignUsesMemcpyIntrinsic(t *testing.T) {
	m := compileSnippet(t, `
struct big { long v[8]; };
void copy(struct big *d, struct big *s) { *d = *s; }
`)
	text := fnText(t, m, "copy")
	if !strings.Contains(text, "__builtin_memcpy") || !strings.Contains(text, "i64 64") {
		t.Errorf("struct assignment should lower to a 64-byte memcpy:\n%s", text)
	}
}

func TestCodegenErrorsAreDiagnosed(t *testing.T) {
	bad := []string{
		`int f(void) { return undeclared; }`,
		`int f(void) { int x; return x.field; }`,
		`int f(void) { int x; return *x; }`,
		`struct s; int f(struct s v) { return 0; }`, // incomplete by-value param
		`int f(int a) { return g(a); }`,             // undeclared function
	}
	for _, src := range bad {
		if _, err := Compile("t.c", map[string]string{"t.c": src}, Options{}); err == nil {
			t.Errorf("compiled without error: %s", src)
		}
	}
}

// TestCodegenInitializerLength: globals and locals share one
// initializer-length rule (C11 6.7.9p2). Excess list items, at any nesting
// level, and a string longer than its array are errors, and a flexible
// array member has room for neither; a string whose characters fill the
// array exactly drops its NUL (6.7.9p14).
func TestCodegenInitializerLength(t *testing.T) {
	for _, tc := range []struct{ decl, msg string }{
		{`int c[3] = {1, 2, 3, 4};`, "too many initializers for int[3]"},
		{`int m[2][2] = {{1, 2, 3}, {4, 5}};`, "too many initializers for int[2]"},
		{`char s[2] = "abcdef";`, "initializer string too long for char[2]"},
		{`struct S { int n; int d[]; } s = {1, {2, 3}};`, "too many initializers for int["},
		{`struct T { int n; char d[]; } s = {1, "abc"};`, "initializer string too long for char["},
	} {
		for _, src := range []string{
			tc.decl + "\nint f(void) { return 0; }\n",
			"int f(void) {\n  " + tc.decl + "\n  return 0;\n}\n",
		} {
			_, err := Compile("t.c", map[string]string{"t.c": src}, Options{})
			if err == nil || !strings.Contains(err.Error(), "t.c:") || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("Compile(%q) = %v, want %q", src, err, tc.msg)
			}
		}
	}

	m := compileSnippet(t, `
char t[2] = "ab";
char u[3] = "ab";
int f(void) { char l[2] = "ab"; return l[0]; }
`)
	for name, want := range map[string]string{"t": "ab", "u": "ab\x00"} {
		if b, ok := m.Global(name).Init.(ir.ConstBytes); !ok || string(b.Data) != want {
			t.Errorf("global %s initializer %#v, want bytes %q", name, m.Global(name).Init, want)
		}
	}
}

func TestCodegenConstCastFoldedAtFrontEnd(t *testing.T) {
	m := compileSnippet(t, `
long f(void) { return (long)(char)300; }
`)
	text := fnText(t, m, "f")
	if !strings.Contains(text, "ret i64 44") {
		t.Errorf("front end should fold (long)(char)300 to 44:\n%s", text)
	}
}

func TestCodegenDeadBlocksStayWellFormed(t *testing.T) {
	m := compileSnippet(t, `
int f(void) {
  return 1;
  return 2;
}
`)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("unreachable trailing code broke the IR: %v", err)
	}
}
