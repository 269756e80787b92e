package pipeline

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/ir"
	"repro/internal/libc"
)

// parityProgram is one input of the link-parity suite: a program and, when
// header is not empty, the include file userHeader with header's text.
type parityProgram struct{ name, src, header string }

// userHeader is the name a parity program's header is included by.
const userHeader = "user.h"

// extraFiles is the program's include file set beside libc.
func (p parityProgram) extraFiles() map[string]string {
	if p.header == "" {
		return nil
	}
	return map[string]string{userHeader: p.header}
}

// parityPrograms is every corpus case and fuzz find, every benchmark
// program, the first 200 seed-1 generated programs with one mutant each,
// one program failing in each front-end stage, since an error's position
// names where the unit was when it failed, redeclarations of libc's names
// by programs that do not include its headers, the include-guard cases and
// the initializer-length cases.
func parityPrograms() []parityProgram {
	ps := []parityProgram{
		{"error/preprocess", "#include \"missing.h\"\nint main(void) { return 0; }\n", ""},
		{"error/nested-preprocess", "#include <stdio.h>\n#if 1\nint main(void) { return 0; }\n", ""},
		{"error/parse-at-eof", "int main(void) {\n  return 0;\n", ""},
		{"error/lower", "int main(void) { return undeclared; }\n", ""},
	}
	ps = append(ps, redeclarations...)
	ps = append(ps, guardPrograms...)
	ps = append(ps, initPrograms...)
	for _, c := range corpus.All() {
		ps = append(ps, parityProgram{"corpus/" + c.Name, c.Source, ""})
	}
	for _, c := range corpus.FuzzFinds() {
		ps = append(ps, parityProgram{"fuzzfind/" + c.Name, c.Source, ""})
	}
	for _, b := range benchprog.All() {
		ps = append(ps, parityProgram{"benchprog/" + b.Name, b.Source, ""})
	}
	for i := 0; i < 200; i++ {
		seed := gen.SeedAt(1, i)
		info := gen.Generate(seed)
		ps = append(ps,
			parityProgram{fmt.Sprintf("gen/%d", i), info.Source, ""},
			parityProgram{fmt.Sprintf("gen/%d/mutant", i), gen.Mutate(info.Source, seed).Source, ""})
	}
	return ps
}

// redeclarations redeclare libc's functions with other types. Libc's code
// never calls rand or abs, so redefining them is accepted; it calls
// isdigit, so redeclaring isdigit is an error. An unprototyped declaration
// accepts a later prototype.
var redeclarations = []parityProgram{
	{"redeclare/rand", "int rand(int n) { return n; }\nint main(void) { return rand(3); }\n", ""},
	{"redeclare/abs", "long abs(long x) { return x < 0 ? -x : x; }\nint main(void) { return (int)abs(-4L); }\n", ""},
	{"redeclare/isdigit", "int isdigit(char c) { return c == '7'; }\nint main(void) { return isdigit('7'); }\n", ""},
	{"redeclare/unprototyped", "int f();\nint main(void) { return f(3); }\nint f(int x) { return x; }\n", ""},
}

// guardPrograms include headers whose include guard the preprocessor
// records: a libc header again after undefining its guard, a user header
// twice, a libc header after defining its guard, and an include chain
// that exceeds the depth limit at a header whose guard is defined.
var guardPrograms = []parityProgram{
	{"guard/undef-libc", "#include <stdio.h>\n#undef _STDIO_H\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", EOF); return 0; }\n", ""},
	{"guard/user-header-twice", "#include \"user.h\"\n#include \"user.h\"\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", twice + TWICE); return 0; }\n",
		"/* user.h */\n#ifndef USER_H\n#define USER_H\n#define TWICE 40\nint twice = 2;\n#endif\n"},
	{"guard/define-libc", "#define _STRING_H\n#include <string.h>\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", (int)strlen(\"abc\")); return 0; }\n", ""},
	{"guard/depth", "#include <stdio.h>\n#include \"user.c\"\nint main(void) { return 0; }\n", ""},
}

// initPrograms exceed an array with their initializer, a C11 6.7.9p2
// constraint violation, as a global and as a local: a list, a nested list
// and a string, and a flexible array member, which has no room for any
// initializer. The last fits a string exactly, dropping its NUL, which is
// legal.
var initPrograms = []parityProgram{
	{"init/global-list", "int count[3] = {1, 2, 3, 4};\nint main(void) { return count[0]; }\n", ""},
	{"init/global-nested", "int m[2][2] = {{1, 2, 3}, {4, 5}};\nint main(void) { return m[0][0]; }\n", ""},
	{"init/global-string", "char s[2] = \"abcdef\";\nint main(void) { return s[0]; }\n", ""},
	{"init/local-list", "int main(void) {\n  int count[3] = {1, 2, 3, 4};\n  return count[0];\n}\n", ""},
	{"init/local-nested", "int main(void) {\n  int m[2][2] = {{1, 2, 3}, {4, 5}};\n  return m[0][0];\n}\n", ""},
	{"init/local-string", "int main(void) {\n  char s[2] = \"abcdef\";\n  return s[0];\n}\n", ""},
	{"init/global-flexible", "struct S { int n; int d[]; } s = {1, {2, 3}};\nint main(void) { return s.n; }\n", ""},
	{"init/local-flexible", "struct S { int n; char d[]; };\nint main(void) {\n  struct S s = {1, \"abc\"};\n  return s.n;\n}\n", ""},
	{"init/exact-fit-string", "char t[2] = \"ab\";\nint main(void) { char u[2] = \"ab\"; return t[1] - u[1]; }\n", ""},
}

// singleUnit compiles src the way the managed toolchain did before the
// libc prefix: libc and user.c as one translation unit, in one pass.
func singleUnit(p parityProgram, hardened bool) (*ir.Module, error) {
	files := libc.Files()
	maps.Copy(files, p.extraFiles())
	files[userFile] = p.src
	files[libc.UnitFile] = libc.WrapProgram(userFile, hardened)
	return cc.Compile(libc.UnitFile, files, cc.Options{})
}

// testPrefixes builds each libc prefix once for the whole test binary.
var testPrefixes = sync.OnceValue(func() [2]*cc.Prefix {
	var pres [2]*cc.Prefix
	for i, hardened := range []bool{false, true} {
		pre, _, err := buildPrefix(hardened)
		if err != nil {
			panic(err)
		}
		pres[i] = pre
	}
	return pres
})

// linked compiles p against the shared libc prefix, as every managed
// compile does.
func linked(p parityProgram, hardened bool) (*ir.Module, error) {
	mod, _, err := compile(Request{Source: p.src, ExtraFiles: p.extraFiles(), Flavor: FlavorManaged, Hardened: hardened},
		func(hardened bool) (*cc.Prefix, []StageTiming, error) {
			if hardened {
				return testPrefixes()[1], nil, nil
			}
			return testPrefixes()[0], nil, nil
		}, false)
	return mod, err
}

// parityKey names one checked (program, libc build) pair.
type parityKey struct {
	src, header string
	hardened    bool
}

// parityChecked remembers the pairs that passed, so FuzzLinkParity's seed
// run does not repeat what TestLibcLinkParity already checked.
var parityChecked sync.Map

// linkParity reports how p's linked module differs from its single-unit
// reference: the printed modules must be byte-identical, and a compile
// error must be the same error. A linked module that compiles must also
// pass the full ir.Verify, not only its verify stage's check of what it
// adds to libc.
func linkParity(p parityProgram, hardened bool) error {
	key := parityKey{p.src, p.header, hardened}
	if _, ok := parityChecked.Load(key); ok {
		return nil
	}
	if err := compareLinked(p, hardened); err != nil {
		return err
	}
	parityChecked.Store(key, true)
	return nil
}

func compareLinked(p parityProgram, hardened bool) error {
	want, werr := singleUnit(p, hardened)
	got, gerr := linked(p, hardened)
	switch {
	case werr != nil || gerr != nil:
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			return fmt.Errorf("compile errors differ:\n single unit: %v\n linked:      %v", werr, gerr)
		}
	case ir.Print(got) != ir.Print(want):
		return fmt.Errorf("linked module differs from the single-unit module:\n%s", firstDiff(ir.Print(want), ir.Print(got)))
	default:
		if err := ir.Verify(got); err != nil {
			return fmt.Errorf("linked module fails the full verify: %w", err)
		}
	}
	return nil
}

// firstDiff shows the first line where two printed modules part.
func firstDiff(want, got string) string {
	line := 1
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("line %d: want %q, got %q", line, lineAt(want, i), lineAt(got, i))
		}
		if want[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(want), len(got))
}

func lineAt(s string, i int) string {
	start, end := i, i
	for start > 0 && s[start-1] != '\n' {
		start--
	}
	for end < len(s) && s[end] != '\n' {
		end++
	}
	return s[start:end]
}

// TestLibcLinkParity pins the link step: for both libc builds, a program
// compiled against the shared libc prefix prints byte-identically to the
// same program compiled with libc as one translation unit, and fails with
// the same error when that fails.
func TestLibcLinkParity(t *testing.T) {
	programs := parityPrograms()
	type job struct {
		p        parityProgram
		hardened bool
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := linkParity(j.p, j.hardened); err != nil {
					t.Errorf("%s (hardened %v): %v", j.p.name, j.hardened, err)
				}
			}
		}()
	}
	for _, hardened := range []bool{false, true} {
		for _, p := range programs {
			jobs <- job{p, hardened}
		}
	}
	close(jobs)
	wg.Wait()
}

// FuzzLinkParity is TestLibcLinkParity over arbitrary sources and headers.
// Its seeds are the suite's programs, so plain `go test` runs them.
func FuzzLinkParity(f *testing.F) {
	for _, p := range parityPrograms() {
		f.Add(p.src, p.header, false)
	}
	f.Fuzz(func(t *testing.T, src, header string, hardened bool) {
		if err := linkParity(parityProgram{src: src, header: header}, hardened); err != nil {
			t.Error(err)
		}
	})
}

// TestVerifyStageMatchesVerify pins a program's verify stage against the
// full check: a program function broken after lowering fails the stage with
// ir.Verify's error, though the stage skips libc's functions.
func TestVerifyStageMatchesVerify(t *testing.T) {
	p := parityProgram{src: "int g;\nint main(void) { int s = 0; for (int i = 0; i < 3; i++) s += g + i; return s; }\n"}
	for _, c := range []struct {
		name    string
		breakIt func(f *ir.Func, in *ir.Instr) bool
	}{
		{"register out of range", func(f *ir.Func, in *ir.Instr) bool {
			if in.A.Kind != ir.OperReg {
				return false
			}
			in.A.Reg = int32(f.NumRegs + 3)
			return true
		}},
		{"branch target out of range", func(f *ir.Func, in *ir.Instr) bool {
			if in.Op != ir.OpBr {
				return false
			}
			in.Blk0 = int32(len(f.Blocks) + 3)
			return true
		}},
		{"unknown global", func(f *ir.Func, in *ir.Instr) bool {
			if in.Addr.Kind != ir.OperGlobal {
				return false
			}
			in.Addr.Sym = "no_such_global"
			return true
		}},
	} {
		mod, err := linked(p, false)
		if err != nil {
			t.Fatal(err)
		}
		if !breakFunc(mod.Func("main"), c.breakIt) {
			t.Fatalf("%s: no instruction to break", c.name)
		}
		want := ir.Verify(mod)
		got := verifyUnit(mod, testPrefixes()[0])
		if want == nil || got == nil || got.Error() != "pipeline: generated invalid IR: "+want.Error() {
			t.Errorf("%s: the verify stage says %v, ir.Verify %v", c.name, got, want)
		}
	}
}

// breakFunc applies brk to f's instructions until it reports a change.
func breakFunc(f *ir.Func, brk func(*ir.Func, *ir.Instr) bool) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if brk(f, &b.Instrs[i]) {
				return true
			}
		}
	}
	return false
}
