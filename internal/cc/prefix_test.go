package cc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/libc"
)

// libcPrefixes builds the bundled libc's prefixes, plain and hardened, the
// way the managed toolchain does, once per test binary.
var libcPrefixes = sync.OnceValues(func() ([2]*Prefix, error) {
	var pres [2]*Prefix
	for i, hardened := range []bool{false, true} {
		prelude := libc.Prelude(hardened)
		empty, err := NewPrefix(libc.UnitFile, Predefined(nil))
		if err != nil {
			return pres, err
		}
		u := empty.Continue(func(name string) (string, bool) {
			if name == libc.UnitFile {
				return prelude, true
			}
			return libc.File(name)
		})
		if err := u.Preprocess(libc.UnitFile); err != nil {
			return pres, err
		}
		if err := u.Parse(); err != nil {
			return pres, err
		}
		if _, err := u.Lower(); err != nil {
			return pres, err
		}
		if pres[i], err = u.Freeze(strings.Count(prelude, "\n") + 1); err != nil {
			return pres, err
		}
	}
	return pres, nil
})

func libcPrefix(t testing.TB, hardened bool) *Prefix {
	t.Helper()
	pres, err := libcPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	if hardened {
		return pres[1]
	}
	return pres[0]
}

// continueLibc starts a unit compiling user.c after the libc prefix, with
// extra include files.
func continueLibc(t testing.TB, src string, extra map[string]string) *Unit {
	return libcPrefix(t, false).Continue(func(name string) (string, bool) {
		if name == "user.c" {
			return src, true
		}
		if s, ok := extra[name]; ok {
			return s, true
		}
		return libc.File(name)
	})
}

// TestLibcDeclaresPrototypes pins what lets a prototype complete an
// unprototyped declaration that code already uses: libc declares every
// function with a prototype, so no such completion can change code lowered
// into libc's prefix.
func TestLibcDeclaresPrototypes(t *testing.T) {
	for _, hardened := range []bool{false, true} {
		for name, sig := range libcPrefix(t, hardened).funcs {
			if sig.Unprototyped {
				t.Errorf("hardened %v: libc declares %s without a prototype", hardened, name)
			}
		}
	}
}

// TestLibcPrefixGuards pins the include guards the libc prefix publishes:
// the headers every program includes are recorded with their guard, and a
// unit continuing the prefix skips them without lexing them again (it
// records nothing), unless their guard was undefined.
func TestLibcPrefixGuards(t *testing.T) {
	pre := libcPrefix(t, false)
	for _, h := range []string{"stdio.h", "stdlib.h", "string.h", "stddef.h", "stdarg.h"} {
		src, _ := libc.File(h)
		toks, err := Lex(h, src)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := includeGuard(toks)
		if !ok || pre.guards[h] != want {
			t.Errorf("%s: the prefix records guard %q, want %q", h, pre.guards[h], want)
		}
	}
	for _, c := range []struct {
		src    string
		guards string
	}{
		{"#include <stdio.h>\n#include <string.h>\nint main(void) { return 0; }\n", "map[]"},
		{"#undef _STDIO_H\n#include <stdio.h>\nint main(void) { return EOF; }\n", "map[stdio.h:_STDIO_H]"},
	} {
		u := continueLibc(t, c.src, nil)
		if err := u.Preprocess("user.c"); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(u.guards); got != c.guards {
			t.Errorf("%q: the unit recorded guards %s, want %s", c.src, got, c.guards)
		}
	}
}

// TestFreezeVerifiesModule pins that a prefix is verified in full when it
// is frozen: the verify stage of a unit continuing it skips the prefix's
// functions (ir.VerifyExtension).
func TestFreezeVerifiesModule(t *testing.T) {
	empty, err := NewPrefix("p.c", Predefined(nil))
	if err != nil {
		t.Fatal(err)
	}
	u := empty.Continue(lookupIn(map[string]string{"p.c": "int f(int x) { return x + 1; }\n"}))
	if err := u.Preprocess("p.c"); err != nil {
		t.Fatal(err)
	}
	if err := u.Parse(); err != nil {
		t.Fatal(err)
	}
	m, err := u.Lower()
	if err != nil {
		t.Fatal(err)
	}
	m.Func("f").NumRegs = 0 // every register operand is now out of range
	verr := ir.Verify(m)
	if verr == nil {
		t.Fatal("the broken function verifies")
	}
	pre, err := u.Freeze(1)
	if pre != nil || err == nil || !strings.HasSuffix(err.Error(), verr.Error()) {
		t.Errorf("Freeze of a broken module: %v, %v; want the error %q", pre, err, verr)
	}
}

// TestLibcPrefixStructsDistinct pins the premise of the struct walk's fast
// path (collectStructs): no two of libc's structs share a name, so a
// program that adds no struct of a libc struct's name walks only what it
// adds.
func TestLibcPrefixStructsDistinct(t *testing.T) {
	for _, hardened := range []bool{false, true} {
		pre := libcPrefix(t, hardened)
		if !pre.distinctStructs {
			t.Errorf("hardened %v: two of libc's structs share a name", hardened)
		}
	}
	u := continueLibc(t, corpus.All()[0].Source, nil)
	if err := u.Preprocess("user.c"); err != nil {
		t.Fatal(err)
	}
	if err := u.Parse(); err != nil {
		t.Fatal(err)
	}
	m, err := u.Lower()
	if err != nil {
		t.Fatal(err)
	}
	base := u.pre.Module
	if _, ok := walkStructs(m, map[string]*ir.StructType{}, 0, 0); !ok || !keepsFuncs(m, base) {
		t.Errorf("%s: the whole walk meets a name twice or a libc function was replaced", corpus.All()[0].Name)
	}
}

// aliasFile is the second name FuzzLibcPrefixPreprocess gives its header.
const aliasFile = "alias.h"

// FuzzLibcPrefixPreprocess feeds a user program and an include file through
// units continuing the libc prefix. Nothing may panic out of Preprocess,
// Parse or Lower, and the include guard skip must be invisible: including
// the header a second time emits the tokens, or the error, that including
// its copy under another name does, which no guard was recorded for. A
// guarded header wraps the text in an include guard. The seeds run under
// plain `go test`.
func FuzzLibcPrefixPreprocess(f *testing.F) {
	for _, h := range libc.Headers() {
		src, _ := libc.File(h)
		f.Add(fmt.Sprintf("#include <%s>\nint main(void) { return 0; }\n", h), src, false)
	}
	for _, c := range corpus.All() {
		f.Add(c.Source, "", false)
	}
	for _, b := range benchprog.All() {
		f.Add(b.Source, "int header_count;\n", true)
	}
	for _, g := range guardPrograms {
		f.Add(g.src, g.header, g.guarded)
	}
	f.Fuzz(func(t *testing.T, src, header string, guarded bool) {
		if strings.Contains(src+header, aliasFile) {
			t.Skip("the program names the alias")
		}
		if guarded {
			header = "#ifndef FUZZ_H\n#define FUZZ_H\n" + header + "\n#endif\n"
		}
		run := func(second string) ([]Token, error) {
			u := continueLibc(t, "#include \"h.h\"\n#include \""+second+"\"\n"+src, map[string]string{"h.h": header, aliasFile: header})
			err := u.Preprocess("user.c")
			if err == nil && second == "h.h" && u.Parse() == nil {
				_, _ = u.Lower() // a compile error is an outcome; only a panic is a finding
			}
			return u.toks, err
		}
		twice, terr := run("h.h")
		alias, aerr := run(aliasFile)
		if aerr != nil {
			aerr = fmt.Errorf("%s", strings.ReplaceAll(aerr.Error(), aliasFile, "h.h"))
		}
		if fmt.Sprint(terr) != fmt.Sprint(aerr) {
			t.Fatalf("including the header twice fails with %v, its copy with %v", terr, aerr)
		}
		if terr != nil {
			return
		}
		if len(twice) != len(alias) {
			t.Fatalf("including the header twice emits %d tokens, its copy %d", len(twice), len(alias))
		}
		for i := range twice {
			a, b := twice[i], alias[i]
			a.File, b.File, a.hide, b.hide = 0, 0, 0, 0
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("token %d: including the header twice emits %+v, its copy %+v", i, a, b)
			}
		}
	})
}

// guardPrograms are the include-guard cases: a program's source, its header
// and whether the header is wrapped in a guard.
var guardPrograms = []struct {
	src, header string
	guarded     bool
}{
	{"#include <stdio.h>\n#undef _STDIO_H\n#include <stdio.h>\nint main(void) { return EOF; }\n", "", false},
	{"#define _STRING_H\n#include <string.h>\nint main(void) { return (int)strlen(\"abc\"); }\n", "", false},
	{"#include \"h.h\"\nint main(void) { return twice; }\n", "int twice = 2;\n", true},
	{"#include \"h.h\"\nint main(void) { return twice; }\n", "int twice = 2;\n", false},
	{"#undef FUZZ_H\n#include \"h.h\"\nint main(void) { return 0; }\n", "#define ONCE\n", true},
	{"int main(void) { return 0; }\n", "#ifndef FUZZ_H\n#define FUZZ_H\n#endif\n#undef FUZZ_H\n", false},
	{"int main(void) { return 0; }\n", "#ifndef FUZZ_H\n#define FUZZ_H\n#else\nint twice;\n#endif\n", false},
	{"#include <stdio.h>\n#include \"user.c\"\n", "", false},
	{"int main(void) { return 0; }\n", "#include \"h.h\"\n", true},
}

// TestContinuedStructTable pins the struct table of a unit continuing a
// prefix to the one-pass compile's, for the programs the walk's fast path
// must hand to the whole walk: one replacing a function whose prototype
// alone reached a struct, one whose global is of a new struct with a prefix
// struct's name, and a prefix that itself has two structs of one name.
func TestContinuedStructTable(t *testing.T) {
	for _, c := range []struct{ name, prefix, user string }{
		{"the program adds structs",
			"struct p { int x; };\nint lib(struct p *q) { return q->x; }\n",
			"struct u { struct p in; long y; } g;\nint main(void) { return lib(&g.in); }\n"},
		{"a replaced prototype reached a struct",
			"struct only { int x; };\nint lib(struct only p);\nint use(void) { return 1; }\n",
			"int lib(int x) { return x; }\nint main(void) { return lib(use()); }\n"},
		{"a global of a redefined tag",
			"struct t { int a; };\nint f(void) { struct t v; v.a = 1; return v.a; }\n",
			"struct t { double d; };\nstruct t g;\nint main(void) { return f(); }\n"},
		{"the prefix defines a tag twice",
			"struct s { int a; };\nint f1(void) { struct s v; v.a = 1; return v.a; }\nstruct s { long b; };\nint f2(void) { struct s w; w.b = 2; return (int)w.b; }\n",
			"struct s g;\nint main(void) { return f1() + f2(); }\n"},
	} {
		files := map[string]string{"main.c": c.prefix + "#include \"user.c\"\n", "user.c": c.user}
		want, err := Compile("main.c", files, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		empty, err := NewPrefix("main.c", Predefined(nil))
		if err != nil {
			t.Fatal(err)
		}
		pu := empty.Continue(lookupIn(map[string]string{"main.c": c.prefix}))
		if err := pu.Preprocess("main.c"); err != nil {
			t.Fatal(err)
		}
		if err := pu.Parse(); err != nil {
			t.Fatal(err)
		}
		if _, err := pu.Lower(); err != nil {
			t.Fatal(err)
		}
		pre, err := pu.Freeze(strings.Count(c.prefix, "\n") + 1)
		if err != nil {
			t.Fatal(err)
		}
		u := pre.Continue(lookupIn(files))
		if err := u.Preprocess("user.c"); err != nil {
			t.Fatal(err)
		}
		if err := u.Parse(); err != nil {
			t.Fatal(err)
		}
		got, err := u.Lower()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ir.Print(got) != ir.Print(want) {
			t.Errorf("%s: the continued unit prints\n%s\nthe one-pass compile\n%s", c.name, ir.Print(got), ir.Print(want))
		}
	}
}

// overlaySrc writes to every table a unit overlays on the libc prefix: it
// undefines and redefines libc macros, shadows a libc typedef in block
// scope, and declares its own struct tag, enum constant, global and
// functions.
const overlaySrc = `#include <stdio.h>
#include <stdlib.h>
#undef EOF
#ifdef EOF
#error EOF is still defined
#endif
#define EOF (-7)
#undef NULL
#define NULL ((void *)1)
struct pair { int a; long b; };
enum { OVERLAY_K = 41 };
int counter;
static int bump(struct pair *p) { return p->a + (int)p->b; }
int main(void) {
	struct pair q = { OVERLAY_K, 1 };
	{
		typedef short size_t;
		size_t n = 3;
		counter = n + (int)sizeof(size_t);
	}
	printf("%d %d %d\n", bump(&q), EOF, counter);
	return NULL == 0;
}
`

// TestLibcPrefixOverlay pins what a unit continuing the libc prefix sees
// through its overlaid tables: overlaySrc prints the module a one-pass
// compile of libc and the program prints, alone and with eight units
// continuing the prefix at once (run it under -race), and the prefix's
// tables hold afterwards what they held before.
func TestLibcPrefixOverlay(t *testing.T) {
	files := libc.Files()
	files["user.c"] = overlaySrc
	files[libc.UnitFile] = libc.WrapProgram("user.c", false)
	ref, err := Compile(libc.UnitFile, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ir.Print(ref)
	pre := libcPrefix(t, false)
	sizes, digest := prefixTables(pre)
	compile := func() (string, error) {
		u := continueLibc(t, overlaySrc, nil)
		if err := u.Preprocess("user.c"); err != nil {
			return "", err
		}
		if err := u.Parse(); err != nil {
			return "", err
		}
		m, err := u.Lower()
		if err != nil {
			return "", err
		}
		return ir.Print(m), nil
	}
	if got, err := compile(); err != nil || got != want {
		t.Fatalf("the continued unit prints (err %v)\n%s\nthe one-pass compile\n%s", err, got, want)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := compile()
			if err == nil && got != want {
				err = fmt.Errorf("a concurrent unit prints another module")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("unit %d: %v", i, err)
		}
	}
	if s, d := prefixTables(pre); s != sizes || d != digest {
		t.Errorf("the prefix's tables changed: %s, digest %s; before %s, digest %s", s, d, sizes, digest)
	}
}

// prefixTables returns the sizes of a prefix's macro, tag, typedef, enum,
// global and function tables, and a digest of their entries: each name
// with the identity and contents of what it maps to.
func prefixTables(pre *Prefix) (sizes, digest string) {
	var lines []string
	tableLines(&lines, "macro", pre.macros, func(m *macro) string {
		return fmt.Sprintf("%p %v %v %s", m, m.funcLike, m.params, tokensText(m.body))
	})
	for table, tags := range map[string]map[string]*CStructInfo{"struct": pre.structs, "union": pre.unions} {
		tableLines(&lines, table, tags, func(s *CStructInfo) string {
			return fmt.Sprintf("%p %d %v %v", s, len(s.Fields), s.Complete, s.frozen)
		})
	}
	tableLines(&lines, "typedef", pre.typedefs, func(t *CType) string { return fmt.Sprintf("%p %s", t, t) })
	tableLines(&lines, "enum", pre.enums, func(v int64) string { return fmt.Sprint(v) })
	tableLines(&lines, "global", pre.globals, func(t *CType) string { return fmt.Sprintf("%p %s", t, t) })
	tableLines(&lines, "func", pre.funcs, func(f *CFuncInfo) string {
		return fmt.Sprintf("%p %s %v %v", f, f.Ret, f.Params, f.Variadic)
	})
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	sizes = fmt.Sprintf("%d macros, %d structs, %d unions, %d typedefs, %d enums, %d globals, %d funcs",
		len(pre.macros), len(pre.structs), len(pre.unions), len(pre.typedefs), len(pre.enums), len(pre.globals), len(pre.funcs))
	return sizes, hex.EncodeToString(sum[:])
}

// tableLines adds a line per entry of the table m: the table, the name and
// what show makes of the value.
func tableLines[V any](lines *[]string, table string, m map[string]V, show func(V) string) {
	for name, v := range m {
		*lines = append(*lines, table+" "+name+" "+show(v))
	}
}
