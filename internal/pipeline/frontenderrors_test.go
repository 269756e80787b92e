package pipeline

import (
	"fmt"
	"testing"
)

// TestFrontEndErrorPositions pins the position and text of front-end
// errors in a managed compile, where a token's file is an index into the
// unit's file table and its line a 32-bit count. An error in the
// preprocessor or the lexer is reported at each including line too (the
// libc unit's main file includes user.c from line 5), an error in an
// expansion at the macro's use, and a string literal has no text where
// the preprocessor reads a token as a word.
func TestFrontEndErrorPositions(t *testing.T) {
	for _, c := range []struct {
		name string
		p    parityProgram
		want string
	}{
		{name: "parse error in an extra file",
			p:    parityProgram{src: "#include \"user.h\"\nint main(void) { return f(); }\n", header: "#define LIMIT 1\nint f(void) {\n  return LIMIT +;\n}\n"},
			want: `user.h:3: unexpected token ";" in expression`},
		{name: "lex error in an extra file",
			p:    parityProgram{src: "#include \"user.h\"\nint main(void) { return 0; }\n", header: "int x;\nchar *s = \"abc\\q\";\n"},
			want: `__program.c:5: user.c:1: user.h:2: unknown escape \q`},
		{name: "lowering error in an extra file",
			p:    parityProgram{src: "#include \"user.h\"\nint main(void) { return 0; }\n", header: "int x;\nint f(void) { return nope; }\n"},
			want: `user.h:2: use of undeclared identifier "nope"`},
		{name: "parse error inside a macro expansion",
			p:    parityProgram{src: "#define BAD(x) ((x) +)\nint main(void) {\n  int y = 2;\n  return BAD(y);\n}\n"},
			want: `user.c:4: unexpected token ")" in expression`},
		{name: "lowering error inside a macro expansion",
			p:    parityProgram{src: "#define USE(x) (x + missing)\nint main(void) {\n  int y = 2;\n  return USE(y);\n}\n"},
			want: `user.c:4: use of undeclared identifier "missing"`},
		{name: "error after line continuations",
			p:    parityProgram{src: "#define SUM(a, b) \\\n  ((a) + \\\n   (b))\nint main(void) {\n  return SUM(1, 2) + undeclared;\n}\n"},
			want: `user.c:5: use of undeclared identifier "undeclared"`},
		{name: "unterminated string literal",
			p:    parityProgram{src: "int main(void) {\n  char *s = \"abc;\n  return 0;\n}\n"},
			want: `__program.c:5: user.c:2: unterminated string literal`},
		{name: "bad integer suffix",
			p:    parityProgram{src: "int main(void) {\n  long v = 12lz;\n  return 0;\n}\n"},
			want: `user.c:2: expected ";", found "z"`},
		{name: "bad float literal",
			p:    parityProgram{src: "int main(void) {\n  double v = 1.5e+;\n  return 0;\n}\n"},
			want: `__program.c:5: user.c:2: bad float literal "1.5e+"`},
		{name: "error after a string-literal concatenation",
			p:    parityProgram{src: "int main(void) {\n  char *s = \"ab\"\n    \"cd\" 5;\n  return 0;\n}\n"},
			want: `user.c:3: expected ";", found 5`},
		{name: "string literal as a directive name",
			p:    parityProgram{src: "int x;\n# \"pragma\"\nint main(void) { return 0; }\n"},
			want: `__program.c:5: user.c:2: unknown directive #`},
		{name: "string literal in #if",
			p:    parityProgram{src: "int x;\n#if \"x\"\n#endif\nint main(void) { return 0; }\n"},
			want: `__program.c:5: user.c:2: bad #if expression near ""`},
		{name: "string literal in #include <...>",
			p:    parityProgram{src: "int x;\n#include <\"a\">\nint main(void) { return 0; }\n"},
			want: `__program.c:5: user.c:2: cc: include file "" not found`},
		{name: "string literal as a macro parameter",
			p:    parityProgram{src: "int x;\n#define F(\"a\") a\nint main(void) { return 0; }\n"},
			want: `__program.c:5: user.c:2: bad macro parameter ""`},
		{name: "string literal pasted",
			p:    parityProgram{src: "#define CAT(a, b) a ## b\nint main(void) {\n  int yz = 1;\n  return CAT(\"q\", yz) + CAT(y, \"w\");\n}\n"},
			want: `user.c:4: use of undeclared identifier "y"`},
	} {
		_, err := linked(c.p, false)
		if got := fmt.Sprint(err); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
