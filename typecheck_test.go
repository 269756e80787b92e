package sulong_test

import (
	"strings"
	"testing"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/ir"
)

// TestTypeConfusionBlindSpot is the acceptance gate for the type-identity
// plane: every type-confusion corpus case must be detected by the managed
// engine — with an allocation-site backtrace on the report — while ASan and
// memcheck, whose shadow state models where memory is valid rather than
// what it holds, report nothing at either optimization level.
func TestTypeConfusionBlindSpot(t *testing.T) {
	n := 0
	for _, c := range corpus.All() {
		if c.Category != corpus.TypeConfusion {
			continue
		}
		n++
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			res, err := sulong.Run(c.Source, sulong.Config{
				Engine: sulong.EngineSafeSulong, Args: c.Args, Stdin: strings.NewReader(c.Stdin),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bug == nil {
				t.Fatalf("managed engine found no bug (stdout=%q exit=%d)", res.Stdout, res.ExitCode)
			}
			switch res.Bug.Kind {
			case core.BadUnionRead, core.BadCast, core.VarargMismatch:
			default:
				t.Errorf("bug kind = %v, want a type-confusion kind", res.Bug.Kind)
			}
			if res.Bug.AllocStack.IsEmpty() {
				t.Errorf("report lacks an allocation-site backtrace: %v", res.Bug)
			}
			if res.Bug.Accessed == "" && res.Bug.CType == "" {
				t.Errorf("report carries no type identity: %v", res.Bug)
			}
			for _, tool := range []harness.Tool{
				harness.NativeO0, harness.ASanO0, harness.ASanO3,
				harness.ValgrindO0, harness.ValgrindO3,
			} {
				cell := harness.RunCase(c, tool)
				if cell.RunError != "" {
					t.Errorf("%v: run error: %s", tool, cell.RunError)
					continue
				}
				if cell.Detected || cell.Crashed {
					t.Errorf("%v unexpectedly reported: %s", tool, cell.Report)
				}
			}
		})
	}
	if n < 3 {
		t.Errorf("type-confusion corpus has %d cases, want >= 3", n)
	}
}

// introProbe exercises every introspection builtin on stack, heap
// (cast-adopted), null, and freed pointers. All four engines must print
// byte-identical answers: the type mirror is the managed metadata's native
// shadow, not an approximation with different semantics.
const introProbe = `#include <stdio.h>
#include <stdlib.h>
#include <introspect.h>
struct point { long x; long y; };
int main(void) {
    char buf[16];
    struct point *p = (struct point *)malloc(sizeof(struct point));
    if (p == 0) {
        return 1;
    }
    buf[0] = 'a';
    printf("stack size=%ld bounds=%ld type=%s\n",
           _size_of_object((void *)buf), _bounds_of((void *)(buf + 4)), _type_of((void *)buf));
    printf("heap size=%ld bounds=%ld type=%s\n",
           _size_of_object((void *)p), _bounds_of((void *)p), _type_of((void *)p));
    printf("null size=%ld bounds=%ld type=%s\n",
           _size_of_object((void *)0), _bounds_of((void *)0), _type_of((void *)0));
    free(p);
    printf("freed bounds=%ld\n", _bounds_of((void *)p));
    return 0;
}`

func TestIntrospectionParityAcrossEngines(t *testing.T) {
	want := "stack size=16 bounds=12 type=char[16]\n" +
		"heap size=16 bounds=16 type=struct point\n" +
		"null size=-1 bounds=0 type=null\n" +
		"freed bounds=0\n"
	for _, eng := range []sulong.Engine{
		sulong.EngineSafeSulong, sulong.EngineNative, sulong.EngineASan, sulong.EngineMemcheck,
	} {
		res, err := sulong.Run(introProbe, sulong.Config{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if res.Bug != nil || res.Fault != nil {
			t.Fatalf("%v: unexpected report: bug=%v fault=%v", eng, res.Bug, res.Fault)
		}
		if res.Stdout != want {
			t.Errorf("%v stdout:\n%s\nwant:\n%s", eng, res.Stdout, want)
		}
	}
}

// TestIntrospectionUnderFaultPlan pins the documented don't-know value on
// the fault plane's denied allocations: _size_of_object(NULL) is -1, in
// every engine, and identically under tier-0 and the forced asynchronous
// tiering pipeline. Calling the builtins must never shift a fault-schedule
// coordinate: the denial stays on allocation 1 regardless.
func TestIntrospectionUnderFaultPlan(t *testing.T) {
	const src = `#include <stdio.h>
#include <stdlib.h>
#include <introspect.h>
int main(void) {
    int i;
    for (i = 0; i < 6; i++) {
        char *p = (char *)malloc(32);
        printf("%d size=%ld type=%s\n", i, _size_of_object((void *)p), _type_of((void *)p));
        if (p != 0) {
            free(p);
        }
    }
    return 0;
}`
	plan := fault.Plan{FailNth: 1}
	var first string
	for _, eng := range []sulong.Engine{
		sulong.EngineSafeSulong, sulong.EngineNative, sulong.EngineASan, sulong.EngineMemcheck,
	} {
		res, err := sulong.Run(src, sulong.Config{Engine: eng, FaultPlan: plan})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !strings.HasPrefix(res.Stdout, "0 size=-1 type=null\n") {
			t.Errorf("%v: denied allocation not reported as size -1:\n%s", eng, res.Stdout)
		}
		if first == "" {
			first = res.Stdout
		} else if res.Stdout != first {
			t.Errorf("%v diverges from SafeSulong:\n%s\nwant:\n%s", eng, res.Stdout, first)
		}
	}
	// Every managed tier agrees byte-for-byte, steps included.
	var ref harness.Outcome
	for _, tier := range harness.Tiers() {
		o := harness.RunSource(src, harness.SafeSulong, harness.CaseBudget{Tier: tier, FaultPlan: plan})
		if tier == harness.Tier0 {
			ref = o
			if o.Stdout != first {
				t.Errorf("tier-0 run diverges from plain run:\n%s\nwant:\n%s", o.Stdout, first)
			}
		} else if d := o.Diff(ref); d != "" {
			t.Errorf("%s vs tier-0: %s", tier, d)
		}
	}
}

// TestHardenedLibcTruncates checks the bounds-aware libc on both
// toolchains: with Config.HardenedLibc the bulk-write family truncates at
// the destination object's end — same visible output on the managed engine
// (recompiled C libc consulting _bounds_of) and the native machine
// (precompiled nlibc consulting the type mirror) — while the default libc
// keeps its ordinary overflowing behavior, which the managed engine
// reports exactly.
func TestHardenedLibcTruncates(t *testing.T) {
	const src = `#include <stdio.h>
#include <string.h>
int main(void) {
    char buf[8];
    char b2[8];
    strcpy(buf, "overflowing string");
    printf("[%s]\n", buf);
    memset(b2, 'x', 32);
    b2[7] = 0;
    printf("[%s]\n", b2);
    return 0;
}`
	const want = "[overflo]\n[xxxxxxx]\n"
	for _, eng := range []sulong.Engine{
		sulong.EngineSafeSulong, sulong.EngineNative, sulong.EngineMemcheck,
	} {
		res, err := sulong.Run(src, sulong.Config{Engine: eng, HardenedLibc: true})
		if err != nil {
			t.Fatalf("%v hardened: %v", eng, err)
		}
		if res.Bug != nil || res.Fault != nil {
			t.Fatalf("%v hardened: unexpected report: bug=%v fault=%v", eng, res.Bug, res.Fault)
		}
		if res.Stdout != want {
			t.Errorf("%v hardened stdout = %q, want %q", eng, res.Stdout, want)
		}
	}
	// Unhardened, the same program is a reported stack overflow.
	res, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineSafeSulong})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bug == nil || res.Bug.Kind != core.OutOfBounds {
		t.Errorf("default libc: want an out-of-bounds report, got %v", res.Bug)
	}
}

// TestTypedIRRoundTrip checks that the type-identity metadata survives the
// textual IR: union layouts keep their keyword, allocation and cast sites
// keep their !ctype annotations, and a re-parsed module reports the same
// bug as the original.
func TestTypedIRRoundTrip(t *testing.T) {
	for _, name := range []string{"union-double-as-long", "cast-heap-retype"} {
		c, ok := corpus.Get(name)
		if !ok {
			t.Fatalf("corpus case %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			mod, err := sulong.CompileOnly(c.Source)
			if err != nil {
				t.Fatal(err)
			}
			text1 := ir.Print(mod)
			if !strings.Contains(text1, "!ctype") {
				t.Error("printed module carries no !ctype annotations")
			}
			if name == "union-double-as-long" && !strings.Contains(text1, "union") {
				t.Error("printed module lost the union keyword")
			}
			mod2, err := ir.Parse(text1)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if err := ir.Verify(mod2); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if text2 := ir.Print(mod2); text1 != text2 {
				t.Fatal("print/parse/print not a fixpoint")
			}
			cfg := sulong.Config{Engine: sulong.EngineSafeSulong}
			want, err := sulong.RunModule(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sulong.RunModule(mod2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Bug == nil || got.Bug == nil {
				t.Fatalf("detection lost: original bug=%v, reparsed bug=%v", want.Bug, got.Bug)
			}
			if want.Bug.Error() != got.Bug.Error() {
				t.Errorf("reports diverge after round trip:\n%v\n%v", want.Bug, got.Bug)
			}
		})
	}
}
