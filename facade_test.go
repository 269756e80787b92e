package sulong_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/nativevm"
)

func TestEngineNames(t *testing.T) {
	names := map[sulong.Engine]string{
		sulong.EngineSafeSulong: "SafeSulong",
		sulong.EngineNative:     "Native",
		sulong.EngineASan:       "ASan",
		sulong.EngineMemcheck:   "Memcheck",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
}

func TestRunModuleRejectsUnknownEngine(t *testing.T) {
	mod, err := sulong.CompileNative("int main(void){ return 0; }", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sulong.RunModule(mod, sulong.Config{Engine: sulong.Engine(99)}); err == nil {
		t.Error("unknown engine should error")
	}
}

func TestNativeConfigPerEngine(t *testing.T) {
	for _, eng := range []sulong.Engine{sulong.EngineNative, sulong.EngineASan, sulong.EngineMemcheck} {
		cfg, err := sulong.NativeConfig(eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if cfg.Libc == nil {
			t.Errorf("%v: no libc binding", eng)
		}
		if eng != sulong.EngineNative && cfg.Tool == nil {
			t.Errorf("%v: instrumented engine without a tool", eng)
		}
		if eng == sulong.EngineNative && cfg.Tool != nil {
			t.Error("bare native must not have a tool")
		}
	}
	if _, err := sulong.NativeConfig(sulong.EngineSafeSulong); err == nil {
		t.Error("NativeConfig(SafeSulong) should error")
	}
}

// TestConcurrentASanSharedLibc pins that ASan's interceptor overlay is built
// once per process: two configs bind the same libc map, and ASan machines
// running over it at once each report against their own tool — a strcpy
// overflow on one machine never leaks into a clean run on another.
func TestConcurrentASanSharedLibc(t *testing.T) {
	a, err := sulong.NativeConfig(sulong.EngineASan)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sulong.NativeConfig(sulong.EngineASan)
	if reflect.ValueOf(a.Libc).UnsafePointer() != reflect.ValueOf(b.Libc).UnsafePointer() {
		t.Fatal("NativeConfig(EngineASan) rebuilt the interceptor overlay")
	}
	if a.Tool == b.Tool {
		t.Fatal("each ASan config needs its own tool")
	}
	mod, err := sulong.CompileNative(`#include <stdlib.h>
#include <string.h>
int main(int argc, char **argv) {
    char *buf = malloc(8);
    strcpy(buf, argv[1]);
    free(buf);
    return 0;
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(arg string) error {
		cfg, err := sulong.NativeConfig(sulong.EngineASan)
		if err != nil {
			return err
		}
		cfg.Args = []string{arg}
		m, err := nativevm.New(mod, cfg)
		if err != nil {
			return err
		}
		_, err = m.Run()
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		arg, overflow := "short", i%2 == 1
		if overflow {
			arg = "far too long for eight bytes"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := run(arg)
			var be *core.BugError
			switch {
			case overflow && (!errors.As(err, &be) || be.Func != "asan:strcpy"):
				t.Errorf("run %d: want an asan:strcpy report, got %v", i, err)
			case !overflow && err != nil:
				t.Errorf("run %d: clean run reported %v", i, err)
			}
		}()
	}
	wg.Wait()
}

func TestCompileErrorsSurfaceLocations(t *testing.T) {
	_, err := sulong.Run("int main(void) { return undeclared_symbol; }",
		sulong.Config{Engine: sulong.EngineSafeSulong})
	if err == nil {
		t.Fatal("expected compile error")
	}
	if !strings.Contains(err.Error(), "user.c:") {
		t.Errorf("error should carry a user.c location: %v", err)
	}
}

func TestExtraFilesInclude(t *testing.T) {
	src := `#include "config.h"
#include <stdio.h>
int main(void) { printf("%d\n", LIMIT); return 0; }`
	res, err := sulong.Run(src, sulong.Config{
		Engine:     sulong.EngineSafeSulong,
		ExtraFiles: map[string]string{"config.h": "#define LIMIT 77\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "77\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

// TestExtraFilesCannotShadowLibc pins that an extra file named like a
// bundled libc file is a compile error naming it: libc is compiled once,
// so such a file could only have changed how libc itself compiles. So is
// one named like the program, user.c, which would be dropped.
func TestExtraFilesCannotShadowLibc(t *testing.T) {
	for _, name := range []string{"string.h", "stdio.c", "user.c"} {
		for _, cfg := range []sulong.Config{{Engine: sulong.EngineSafeSulong}, {Engine: sulong.EngineSafeSulong, NoCache: true}, {Engine: sulong.EngineNative}} {
			cfg.ExtraFiles = map[string]string{name: "#define LIMIT 77\n"}
			_, err := sulong.CompileFor("int main(void) { return 0; }", cfg)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s (engine %v, NoCache %v): error %v, want one naming the shadowed file", name, cfg.Engine, cfg.NoCache, err)
			}
			var ie *core.InternalError
			if errors.As(err, &ie) {
				t.Errorf("%s: shadowing must be an ordinary compile error, got an internal error", name)
			}
		}
	}
}

// TestIncludeGuardPrograms pins what programs that exercise the include
// guard skip do, as they did before the preprocessor skipped guarded
// headers: a libc header is processed again after its guard is undefined, a
// guarded user header twice defines once, a program that defines a libc
// header's guard does not see that header (libc's own code still declares
// it for the managed build), and an include chain reaching a skipped header
// one level too deep fails at that header.
func TestIncludeGuardPrograms(t *testing.T) {
	depthErr := func(outer string) string {
		return outer + strings.Repeat("user.c:2: ", 38) + `user.c:1: cc: include depth exceeded at "stdio.h"`
	}
	for _, c := range []struct {
		name, src      string
		extra          map[string]string
		managed, nativ string // stdout, or the compile error
	}{
		{"undef libc guard", "#include <stdio.h>\n#undef _STDIO_H\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", EOF); return 0; }\n",
			nil, "-1\n", "-1\n"},
		{"user header twice", "#include \"twice.h\"\n#include \"twice.h\"\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", twice + TWICE); return 0; }\n",
			map[string]string{"twice.h": "#ifndef TWICE_H\n#define TWICE_H\n#define TWICE 40\nint twice = 2;\n#endif\n"}, "42\n", "42\n"},
		{"define libc guard", "#define _STRING_H\n#include <string.h>\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", (int)strlen(\"abc\")); return 0; }\n",
			nil, "3\n", `user.c:4: use of undeclared identifier "strlen"`},
		{"include depth", "#include <stdio.h>\n#include \"user.c\"\nint main(void) { return 0; }\n",
			nil, depthErr("__program.c:5: "), depthErr("user.c:2: ")},
	} {
		for _, run := range []struct {
			eng  sulong.Engine
			want string
		}{{sulong.EngineSafeSulong, c.managed}, {sulong.EngineNative, c.nativ}} {
			res, err := sulong.Run(c.src, sulong.Config{Engine: run.eng, ExtraFiles: c.extra})
			got := res.Stdout
			if err != nil {
				got = err.Error()
			}
			if got != run.want {
				t.Errorf("%s (%v): got %q, want %q", c.name, run.eng, got, run.want)
			}
		}
	}
}

// TestRedeclaringLibcNames pins which libc names a program that includes
// no header may declare for itself. The managed build compiles libc's code
// once, against libc's declarations, so it refuses only a redeclaration of
// a name that code uses (isdigit); otherwise it agrees with the native
// build, which compiles the program alone.
func TestRedeclaringLibcNames(t *testing.T) {
	for _, src := range []string{
		"int rand(int n) { return n; }\nint main(void) { return rand(3); }\n",
		"long abs(long x) { return x < 0 ? -x : x; }\nint main(void) { return (int)abs(-4L); }\n",
		"int f();\nint main(void) { return f(3); }\nint f(int x) { return x; }\n",
	} {
		managed, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineSafeSulong})
		if err != nil {
			t.Fatalf("managed: %v\n%s", err, src)
		}
		native, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineNative})
		if err != nil {
			t.Fatalf("native: %v\n%s", err, src)
		}
		if managed.ExitCode != native.ExitCode || managed.ExitCode == 0 {
			t.Errorf("exit codes managed %d, native %d, want equal and nonzero:\n%s", managed.ExitCode, native.ExitCode, src)
		}
	}
	src := "int isdigit(char c) { return c == '7'; }\nint main(void) { return isdigit('7'); }\n"
	if _, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineSafeSulong}); err == nil || !strings.Contains(err.Error(), `conflicting types for "isdigit"`) {
		t.Errorf("managed isdigit redefinition: error %v, want conflicting types", err)
	}
	if _, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineNative}); err != nil {
		t.Errorf("native isdigit redefinition: %v", err)
	}
}

func TestCompileForMatchesEnginePipelines(t *testing.T) {
	src := `
const int tab[2] = {1, 2};
int main(void) { return tab[5]; }`
	managed, err := sulong.CompileFor(src, sulong.Config{Engine: sulong.EngineSafeSulong})
	if err != nil {
		t.Fatal(err)
	}
	native, err := sulong.CompileFor(src, sulong.Config{Engine: sulong.EngineNative, OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The managed module links the interpreted libc; the native one does not.
	if managed.Func("printf") == nil || !functionDefined(managed, "printf") {
		t.Error("managed module should define printf (C libc linked)")
	}
	if functionDefined(native, "printf") {
		t.Error("native module must not define printf (precompiled libc)")
	}
	// The native -O0 pipeline folds the const-global OOB read away.
	if countLoads(native.Func("main")) != 0 {
		t.Errorf("native -O0 should fold the const-global load:\n%s", ir.PrintFunc(native.Func("main")))
	}
	if countLoads(managed.Func("main")) == 0 {
		t.Error("managed module must keep the load (Safe Sulong sees the bug)")
	}
}

func functionDefined(m *ir.Module, name string) bool {
	f := m.Func(name)
	return f != nil && !f.IsDecl
}

func countLoads(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpLoad {
				n++
			}
		}
	}
	return n
}

func TestStatsExposed(t *testing.T) {
	res, err := sulong.Run(`int main(void){ int i, s = 0; for (i = 0; i < 100; i++) s += i; return s & 0x7f; }`,
		sulong.Config{Engine: sulong.EngineSafeSulong})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps == 0 || res.Stats.Allocs == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

// TestReleaseModuleClearsEveryCache: sulong.ReleaseModule retires a module
// from all three reuse layers at once — the module cache, the
// executable-code cache and the engine pool — and a later run of the same
// source recompiles to the identical result. The counters are process-wide,
// so the test is sequential and asserts on deltas.
func TestReleaseModuleClearsEveryCache(t *testing.T) {
	const src = `
int sq(int x) { return x * x; }
int main(void) {
	int s = 0;
	for (int i = 0; i < 40; i++) s += sq(i);
	printf("release fan-out %d\n", s);
	return s % 7;
}
`
	cfg := sulong.Config{Engine: sulong.EngineSafeSulong, JIT: true, JITThreshold: 1}
	mod, err := sulong.CompileFor(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccBefore := sulong.CodeCacheStats()
	var runs [2]sulong.Result
	for i := range runs {
		if runs[i], err = sulong.RunModule(mod, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].Stdout != runs[1].Stdout || runs[0].Stats.Steps != runs[1].Stats.Steps {
		t.Fatalf("warm run diverged from the first: %+v vs %+v", runs[0], runs[1])
	}
	cc, pool := sulong.CodeCacheStats(), sulong.EnginePoolStats()
	if cc.Misses == ccBefore.Misses || cc.Hits == ccBefore.Hits {
		t.Fatalf("the runs did not compile and then reuse tier-1 code: %+v -> %+v", ccBefore, cc)
	}

	sulong.ReleaseModule(mod)
	ccAfter, poolAfter := sulong.CodeCacheStats(), sulong.EnginePoolStats()
	// One JIT configuration compiled the module, so it owned one unit; the
	// second run reused the first run's engine and parked it again.
	if got := cc.Units - ccAfter.Units; got != 1 {
		t.Errorf("release removed %d code-cache units, want the module's 1", got)
	}
	if got := pool.Idle - poolAfter.Idle; got != 1 {
		t.Errorf("release removed %d idle engines, want the module's 1", got)
	}

	pcBefore := sulong.CacheStats()
	again, err := sulong.CompileFor(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pc := sulong.CacheStats(); pc.Misses != pcBefore.Misses+1 || pc.Hits != pcBefore.Hits {
		t.Errorf("compile after release was not a module-cache miss: %+v -> %+v", pcBefore, pc)
	}
	if again == mod {
		t.Error("compile after release returned the released module")
	}
	res, err := sulong.RunModule(again, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != runs[0].Stdout || res.ExitCode != runs[0].ExitCode || res.Stats.Steps != runs[0].Stats.Steps {
		t.Fatalf("re-run after release: stdout %q exit %d steps %d, want %q %d %d",
			res.Stdout, res.ExitCode, res.Stats.Steps, runs[0].Stdout, runs[0].ExitCode, runs[0].Stats.Steps)
	}
	sulong.ReleaseModule(again)
}
