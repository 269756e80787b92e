package cc

import (
	"fmt"
	"maps"
	"strings"
	"testing"
)

// preprocessed runs the preprocessor stage of a unit compiling mainFile on
// the empty prefix.
func preprocessed(mainFile string, files, predefined map[string]string) (*Unit, error) {
	pre, err := NewPrefix(mainFile, predefined)
	if err != nil {
		return nil, err
	}
	u := pre.Continue(lookupIn(files))
	return u, u.Preprocess(mainFile)
}

// preprocess returns the preprocessed tokens of mainFile.
func preprocess(mainFile string, files, predefined map[string]string) ([]Token, error) {
	u, err := preprocessed(mainFile, files, predefined)
	if err != nil {
		return nil, err
	}
	return u.toks, nil
}

// pp runs the preprocessor and renders the output tokens as a string.
func pp(t *testing.T, main string, files map[string]string) string {
	t.Helper()
	if files == nil {
		files = map[string]string{}
	}
	files["main.c"] = main
	toks, err := preprocess("main.c", files, nil)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return renderTokens(toks)
}

// renderTokens renders preprocessed tokens as a string.
func renderTokens(toks []Token) string {
	var parts []string
	for _, tok := range toks {
		switch tok.Kind {
		case TokEOF:
		case TokStrLit:
			parts = append(parts, `"`+tok.Str()+`"`)
		case TokIntLit:
			parts = append(parts, fmtInt(tok.Int))
		default:
			parts = append(parts, tok.Text)
		}
	}
	return strings.Join(parts, " ")
}

func TestObjectMacro(t *testing.T) {
	got := pp(t, "#define N 10\nint a[N];", nil)
	if got != "int a [ 10 ] ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := pp(t, "#define SQ(x) ((x)*(x))\nSQ(a+1)", nil)
	if got != "( ( a + 1 ) * ( a + 1 ) )" {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacros(t *testing.T) {
	got := pp(t, "#define A B\n#define B C\n#define C 42\nA", nil)
	if got != "42" {
		t.Errorf("got %q", got)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	got := pp(t, "#define X X\nX", nil)
	if got != "X" {
		t.Errorf("self-referential macro should not loop: %q", got)
	}
}

func TestObjectLikeWithParenValue(t *testing.T) {
	// `#define P (1+2)` is object-like: a space precedes the paren.
	got := pp(t, "#define P (1+2)\nP", nil)
	if got != "( 1 + 2 )" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroNotInvokedWithoutParens(t *testing.T) {
	got := pp(t, "#define F(x) x\nint F;", nil)
	if got != "int F ;" {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	got := pp(t, "#define A 1\n#undef A\nA", nil)
	if got != "A" {
		t.Errorf("got %q", got)
	}
}

func TestConditionals(t *testing.T) {
	src := `#define FLAG 1
#if FLAG
yes1
#else
no1
#endif
#if !FLAG
no2
#endif
#ifdef FLAG
yes2
#endif
#ifndef FLAG
no3
#else
yes3
#endif
#if defined(FLAG) && FLAG > 0
yes4
#endif
#if FLAG == 2
no4
#elif FLAG == 1
yes5
#else
no5
#endif`
	got := pp(t, src, nil)
	if got != "yes1 yes2 yes3 yes4 yes5" {
		t.Errorf("got %q", got)
	}
	// A level has at most one #else, and no #elif after it (C11 6.10.1),
	// also in a group that is skipped.
	for _, c := range []struct{ src, want string }{
		{"#if 1\na\n#else\nb\n#else\nc\n#elif 1\nd\n#endif\n", "main.c:5: #else after #else"},
		{"#if 0\na\n#else\nb\n#elif 1\nc\n#endif\n", "main.c:5: #elif after #else"},
		{"#ifdef X\n#else\n#else\n#endif\n", "main.c:3: #else after #else"},
		{"#if 0\n#if 1\n#else\n#elif 0\n#endif\n#endif\n", "main.c:4: #elif after #else"},
	} {
		_, err := preprocess("main.c", map[string]string{"main.c": c.src}, nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: got error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestMacroBudgetParity pins the expansion budget's charge: one unit for
// each token the preprocessor emits, a token that names no macro as well
// as each token of an expansion. A unit of N such tokens passes with N
// units left and spends them all; with one more token it fails at that
// token's line.
func TestMacroBudgetParity(t *testing.T) {
	const budgetErr = "cc: macro expansion budget exceeded (recursive macro?)"
	for _, c := range []struct {
		name, src string
		cost      int
		lastLine  int // the line of the unit's last charged token
	}{
		{"macro-free", "int x = 1 + f(2, \"s\");\n\nchar c = 'c' ;\n", 17, 3},
		{"after an expansion", "#define M x y\nM z\n", 4, 2},
	} {
		pre, err := NewPrefix("main.c", nil)
		if err != nil {
			t.Fatal(err)
		}
		pre.budget = c.cost
		u := pre.Continue(lookupIn(map[string]string{"main.c": c.src}))
		if err := u.Preprocess("main.c"); err != nil || u.budget != 0 {
			t.Errorf("%s: with %d units: error %v, %d units left, want none", c.name, c.cost, err, u.budget)
		}
		pre.budget = c.cost - 1
		u = pre.Continue(lookupIn(map[string]string{"main.c": c.src}))
		want := fmt.Sprintf("main.c:%d: %s", c.lastLine, budgetErr)
		if err := u.Preprocess("main.c"); err == nil || err.Error() != want {
			t.Errorf("%s: with %d units: error %v, want %q", c.name, c.cost-1, err, want)
		}
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#if 1
#if 0
dead
#else
live
#endif
#endif
#if 0
#if 1
alsodead
#endif
#endif`
	got := pp(t, src, nil)
	if got != "live" {
		t.Errorf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	got := pp(t, `#include "defs.h"`+"\nVALUE", map[string]string{
		"defs.h": "#define VALUE 7\n",
	})
	if got != "7" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeAngle(t *testing.T) {
	got := pp(t, "#include <sys.h>\nX", map[string]string{
		"sys.h": "#define X ok\n",
	})
	if got != "ok" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeGuards(t *testing.T) {
	h := "#ifndef H\n#define H\nint once;\n#endif\n"
	got := pp(t, `#include "h.h"`+"\n"+`#include "h.h"`, map[string]string{"h.h": h})
	if got != "int once ;" {
		t.Errorf("guard failed: %q", got)
	}
}

func TestMissingIncludeFails(t *testing.T) {
	files := map[string]string{"main.c": `#include "ghost.h"`}
	if _, err := preprocess("main.c", files, nil); err == nil {
		t.Error("expected error for missing include")
	}
}

func TestErrorDirective(t *testing.T) {
	files := map[string]string{"main.c": "#if 1\n#error boom\n#endif"}
	if _, err := preprocess("main.c", files, nil); err == nil {
		t.Error("#error should fail the compilation")
	}
	files = map[string]string{"main.c": "#if 0\n#error never\n#endif\nok"}
	if _, err := preprocess("main.c", files, nil); err != nil {
		t.Errorf("#error in dead branch should be ignored: %v", err)
	}
}

func TestTokenPaste(t *testing.T) {
	got := pp(t, "#define GLUE(a, b) a##b\nGLUE(var, 7)", nil)
	if got != "var7" {
		t.Errorf("got %q", got)
	}
}

func TestMultiStatementMacro(t *testing.T) {
	src := `#define SWAP(a, b) do { int t = a; a = b; b = t; } while (0)
SWAP(x, y);`
	got := pp(t, src, nil)
	if !strings.Contains(got, "int t = x") || !strings.Contains(got, "while ( 0 )") {
		t.Errorf("got %q", got)
	}
}

func TestPredefinedMacros(t *testing.T) {
	files := map[string]string{"main.c": "#ifdef __SULONG__\nsulong\n#endif\nNULL"}
	toks, err := preprocess("main.c", files, map[string]string{
		"__SULONG__": "1",
		"NULL":       "((void*)0)",
	})
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, tok := range toks {
		if tok.Kind != TokEOF {
			parts = append(parts, tok.Text)
		}
	}
	joined := strings.Join(parts, " ")
	if !strings.Contains(joined, "sulong") || !strings.Contains(joined, "void") {
		t.Errorf("got %q", joined)
	}
}

func TestUnterminatedIfFails(t *testing.T) {
	files := map[string]string{"main.c": "#if 1\nx"}
	if _, err := preprocess("main.c", files, nil); err == nil {
		t.Error("unterminated #if should fail")
	}
}

func TestDirectiveAfterMacroUse(t *testing.T) {
	// A macro expansion must not swallow subsequent directives.
	src := "#define A 1\nA\n#define B 2\nB"
	got := pp(t, src, nil)
	if got != "1 2" {
		t.Errorf("got %q", got)
	}
}

// TestIncludeGuardDetector pins the include-guard detector: a file is guarded only
// when one #ifndef group with no top-level #elif or #else holds every token
// but newlines.
func TestIncludeGuardDetector(t *testing.T) {
	for _, c := range []struct {
		name, src, guard string
	}{
		{"classic", "#ifndef A_H\n#define A_H\nint a;\n#endif\n", "A_H"},
		{"comments and blank lines around", "/* a.h */\n\n#ifndef A_H\n#define A_H\n#endif /* A_H */\n\n\n", "A_H"},
		{"no trailing newline", "#ifndef A_H\n#define A_H\n#endif", "A_H"},
		{"tokens on the closing line", "#ifndef A_H\n#endif A_H\n", "A_H"},
		{"nested groups with their own #else", "#ifndef A_H\n#if X\nint a;\n#elif Y\n#else\n#ifdef Z\n#endif\n#endif\n#endif\n", "A_H"},
		{"a guard that defines nothing", "#ifndef A_H\nint a;\n#endif\n", "A_H"},

		{"tokens after the closing #endif", "#ifndef A_H\n#define A_H\n#endif\nint b;\n", ""},
		{"a directive after the closing #endif", "#ifndef A_H\n#define A_H\n#endif\n#define B 1\n", ""},
		{"top-level #else", "#ifndef A_H\n#define A_H\n#else\nint b;\n#endif\n", ""},
		{"top-level #elif", "#ifndef A_H\n#define A_H\n#elif 1\nint b;\n#endif\n", ""},
		{"leading #if !defined", "#if !defined(A_H)\n#define A_H\n#endif\n", ""},
		{"leading #ifdef", "#ifdef A_H\n#endif\n", ""},
		{"two top-level groups", "#ifndef A_H\n#define A_H\n#endif\n#ifndef B_H\n#define B_H\n#endif\n", ""},
		{"tokens before the group", "int b;\n#ifndef A_H\n#define A_H\n#endif\n", ""},
		{"more than the macro on the #ifndef line", "#ifndef A_H B_H\n#endif\n", ""},
		{"unterminated", "#ifndef A_H\n#define A_H\n", ""},
		{"nested group left open", "#ifndef A_H\n#if 1\n#endif\n", ""},
		{"empty file", "", ""},
		{"newlines only", "\n\n", ""},
	} {
		toks, err := Lex("a.h", c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		guard, ok := includeGuard(toks)
		if guard != c.guard || ok != (c.guard != "") {
			t.Errorf("%s: includeGuard = %q, %v; want %q", c.name, guard, ok, c.guard)
		}
	}
}

// TestIncludeGuardSkip pins when a guarded file is skipped: on a later
// #include while its guard is defined, before it is lexed again, and not
// when the guard was undefined in between.
func TestIncludeGuardSkip(t *testing.T) {
	files := map[string]string{
		"a.h": "#ifndef A_H\n#define A_H\nint a;\n#endif\n",
		"b.h": "int b;\n",
	}
	for _, c := range []struct {
		name, src, want string
		guards          map[string]string
	}{
		{"included twice", "#include \"a.h\"\n#include \"a.h\"\n#include \"b.h\"\n#include \"b.h\"\n",
			"int a ; int b ; int b ;", map[string]string{"a.h": "A_H"}},
		{"guard undefined in between", "#include \"a.h\"\n#undef A_H\n#include \"a.h\"\n",
			"int a ; int a ;", map[string]string{"a.h": "A_H"}},
		{"guard defined first", "#define A_H\n#include \"a.h\"\n#include \"a.h\"\n",
			"", map[string]string{"a.h": "A_H"}},
	} {
		files := maps.Clone(files)
		files["main.c"] = c.src
		u, err := preprocessed("main.c", files, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := renderTokens(u.toks); got != c.want {
			t.Errorf("%s: tokens %q, want %q", c.name, got, c.want)
		}
		if !maps.Equal(u.guards, c.guards) {
			t.Errorf("%s: guards %v, want %v", c.name, u.guards, c.guards)
		}
	}
}
