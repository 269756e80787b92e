package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/ir"
)

// hazardPrograms touch the state a libc prefix shares with every program:
// they redefine or forward-declare libc's struct tags, shadow its typedefs
// and macros, redefine its functions, or redeclare names libc's code uses
// as something else (an error in both compiles). TestLibcPrefixConcurrentHazards
// adds the include-guard cases, which read the prefix's guard table.
var hazardPrograms = []parityProgram{
	{"redefine a libc struct tag", `#include <stdio.h>
struct __fmt_out { double d; char c; };
int main(void) {
	struct __fmt_out o; o.d = 2.5; o.c = 'x';
	printf("%d %c %d\n", (int)o.d, o.c, (int)sizeof(struct __fmt_out));
	return 0;
}`, ""},
	{"redefine va_list's struct tag", `#include <stdarg.h>
#include <stdio.h>
struct __varargs { long pad; int counter; void **args; };
int sum(int n, ...) { va_list ap; int s = 0; va_start(ap, n); while (n--) s += va_arg(ap, int); return s; }
int main(void) { printf("%d %d\n", sum(3, 1, 2, 3), (int)sizeof(struct __varargs)); return 0; }`, ""},
	{"declare then define a libc struct tag", `struct __varargs;
struct __varargs { char c; };
int main(void) { struct __varargs v; v.c = 1; return v.c - 1; }`, ""},
	{"shadow a libc typedef", `#include <stdio.h>
typedef unsigned char size_t;
int main(void) { size_t n = 300; printf("%d\n", n); return 0; }`, ""},
	{"shadow libc macros", `#include <stdio.h>
#undef EOF
#define EOF 42
#define va_arg(ap, type) ((type)0)
int main(void) { printf("%d\n", EOF); return 0; }`, ""},
	{"redefine libc functions", `#include <stdio.h>
#include <string.h>
size_t strlen(const char *s) { return 7; }
int puts(const char *s) { return printf("[%s]\n", s); }
int main(void) { puts("hi"); return (int)strlen("abc") - 7; }`, ""},
	{"redeclare a libc function with another type", `int strlen(int); int main(void) { return 0; }`, ""},
	{"redeclare a libc function as a global", `int puts; int main(void) { return puts; }`, ""},
	{"redeclare a libc global as a function", `int __ungot(void) { return 1; } int main(void) { return __ungot(); }`, ""},
}

// probeSrc uses what the hazards touch, the way libc declared it.
const probeSrc = `#include <stdarg.h>
#include <stdio.h>
#include <string.h>
int sum(int n, ...) { va_list ap; int s = 0; va_start(ap, n); while (n--) s += va_arg(ap, int); return s; }
int main(void) {
	size_t z = sizeof(struct __varargs) + sizeof(struct __fmt_out);
	printf("%d %d %d\n", sum(2, 1, 2), (int)z, EOF);
	return (int)strlen("x");
}`

// TestLibcPrefixConcurrentHazards compiles the hazard programs concurrently
// against one cache's shared libc prefixes (run it under -race). Each result
// must equal its own single-unit reference, the prefixes must print the same
// before and after, and a program using what the hazards touched must still
// compile as libc declared it.
func TestLibcPrefixConcurrentHazards(t *testing.T) {
	c := NewCache()
	progs := append(append(hazardPrograms, guardPrograms...), parityProgram{"probe", probeSrc, ""})
	var before [2]string
	for i, hardened := range []bool{false, true} {
		if _, err := c.Compile(Request{Source: probeSrc, Flavor: FlavorManaged, Hardened: hardened}); err != nil {
			t.Fatal(err)
		}
		before[i] = ir.Print(c.prefixes[i].val.Module)
	}
	type want struct {
		mod string
		err string
	}
	wants := map[parityKey]want{}
	for _, p := range progs {
		for _, hardened := range []bool{false, true} {
			mod, err := singleUnit(p, hardened)
			w := want{err: fmt.Sprint(err)}
			if err == nil {
				w.mod = ir.Print(mod)
			}
			wants[parityKey{p.src, p.header, hardened}] = w
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, p := range progs {
				for _, hardened := range []bool{false, true} {
					// A per-worker comment keeps every compile a miss.
					src := fmt.Sprintf("%s\n/* worker %d */\n", p.src, g)
					res, err := c.Compile(Request{Source: src, ExtraFiles: p.extraFiles(), Flavor: FlavorManaged, Hardened: hardened})
					w := wants[parityKey{p.src, p.header, hardened}]
					switch {
					case fmt.Sprint(err) != w.err:
						t.Errorf("%s (hardened %v): error %v, single unit %s", p.name, hardened, err, w.err)
					case err == nil && ir.Print(res.Module) != w.mod:
						t.Errorf("%s (hardened %v): module differs from the single unit:\n%s", p.name, hardened, firstDiff(w.mod, ir.Print(res.Module)))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for i, hardened := range []bool{false, true} {
		if got := ir.Print(c.prefixes[i].val.Module); got != before[i] {
			t.Errorf("hardened %v: the shared prefix changed:\n%s", hardened, firstDiff(before[i], got))
		}
		if err := compareLinked(parityProgram{"probe", probeSrc, ""}, hardened); err != nil {
			t.Errorf("probe after the hazards (hardened %v): %v", hardened, err)
		}
	}
}

// TestLibcPrefixLifecycle pins where the prefix lives: the first managed
// miss builds it and reports its stages, it is no cache entry and no hit or
// miss, Release keeps it, Reset drops it, and CompileUncached builds a
// private one every call.
func TestLibcPrefixLifecycle(t *testing.T) {
	preprocesses := func(st []StageTiming) int {
		n := 0
		for _, s := range st {
			if s.Stage == StagePreprocess {
				n++
			}
		}
		return n
	}
	c := NewCache()
	req := Request{Source: testSrc, Flavor: FlavorManaged}
	r1, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if n := preprocesses(r1.Stages); n != 2 {
		t.Errorf("the compile that builds the prefix ran %d preprocess stages, want 2 (libc, user.c)", n)
	}
	pre := c.prefixes[0].val
	if s := c.Stats(); s.Entries != 2 || s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats %+v, want 2 entries (front end, module), 1 miss, 0 hits", s)
	}
	if c.prefixes[1] != nil {
		t.Error("a plain compile built the hardened prefix")
	}

	c.Release(r1.Module)
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("after Release: %d entries, want 0", s.Entries)
	}
	r2, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit || r2.Module == r1.Module {
		t.Error("a released module must compile afresh")
	}
	if n := preprocesses(r2.Stages); n != 1 || c.prefixes[0].val != pre {
		t.Errorf("after Release the compile ran %d preprocess stages and the prefix was rebuilt: %v; want 1 and the kept prefix",
			n, c.prefixes[0].val != pre)
	}

	c.Reset()
	if c.prefixes != [2]*cell[*cc.Prefix]{} {
		t.Error("Reset kept a prefix")
	}
	r3, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if n := preprocesses(r3.Stages); n != 2 || c.prefixes[0].val == pre {
		t.Errorf("after Reset the compile ran %d preprocess stages; want 2 and a new prefix", n)
	}

	for i := 0; i < 2; i++ {
		_, st, err := CompileUncached(req)
		if err != nil {
			t.Fatal(err)
		}
		if n := preprocesses(st); n != 2 {
			t.Errorf("CompileUncached ran %d preprocess stages, want 2", n)
		}
	}
}
