package sulong_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

// engines under test for the concurrency suite.
var allEngines = []sulong.Engine{
	sulong.EngineSafeSulong, sulong.EngineNative, sulong.EngineASan, sulong.EngineMemcheck,
}

// TestConcurrentRunAllEngines is the -race audit that compiled modules are
// safely shareable: N goroutines run a mix of corpus programs across all
// four engines simultaneously, all of them executing cache-shared modules,
// and every outcome must match a serial reference run.
func TestConcurrentRunAllEngines(t *testing.T) {
	cases := corpus.All()[:8]

	type key struct {
		caseIdx int
		eng     sulong.Engine
	}
	runOne := func(c corpus.Case, eng sulong.Engine) (string, error) {
		cfg := sulong.Config{Engine: eng, Args: c.Args, MaxSteps: 20_000_000, JIT: eng == sulong.EngineSafeSulong}
		if c.Stdin != "" {
			cfg.Stdin = strings.NewReader(c.Stdin)
		}
		res, err := sulong.Run(c.Source, cfg)
		if err != nil {
			return "", err
		}
		switch {
		case res.Bug != nil:
			return "bug: " + res.Bug.Error(), nil
		case res.Fault != nil:
			return "fault: " + res.Fault.Error(), nil
		default:
			return "ok: " + res.Stdout, nil
		}
	}

	// Serial reference.
	ref := map[key]string{}
	for i, c := range cases {
		for _, eng := range allEngines {
			out, err := runOne(c, eng)
			if err != nil {
				t.Fatalf("%s under %v: %v", c.Name, eng, err)
			}
			ref[key{i, eng}] = out
		}
	}

	// Concurrent re-run: every (case, engine) pair twice, all goroutines at
	// once, over the warm shared cache.
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i := range cases {
			for _, eng := range allEngines {
				wg.Add(1)
				go func(i int, eng sulong.Engine) {
					defer wg.Done()
					out, err := runOne(cases[i], eng)
					if err != nil {
						t.Errorf("%s under %v (parallel): %v", cases[i].Name, eng, err)
						return
					}
					if want := ref[key{i, eng}]; out != want {
						t.Errorf("%s under %v diverged:\n got %q\nwant %q", cases[i].Name, eng, out, want)
					}
				}(i, eng)
			}
		}
	}
	wg.Wait()
}

// TestConcurrentNativeLibcState is the -race audit of the native libc table,
// which every native machine in the process shares: a program that leans on
// nlibc's per-run state (strtok's save pointer, the rand seed, ungetc's
// pushback over stdin) runs on different inputs under Native, ASan and
// Memcheck at once, and every outcome must match its serial reference.
func TestConcurrentNativeLibcState(t *testing.T) {
	const src = `
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
int main(void) {
    char line[64];
    int n = 0, c;
    while ((c = getchar()) != EOF && c != '\n' && n < 63) {
        if (c == ',') {
            int d = getchar();
            ungetc(d, stdin);
            if (d == ',') continue;
        }
        line[n++] = (char)c;
    }
    line[n] = 0;
    unsigned seed = 0;
    for (int i = 0; i < n; i++) seed = seed * 31 + (unsigned char)line[i];
    srand(seed);
    for (char *tok = strtok(line, ","); tok; tok = strtok(NULL, ",")) {
        int r = 0;
        for (int k = 0; k < 50; k++) r = rand() % 1000;
        printf("%s:%d ", tok, r);
    }
    printf("\n");
    return 0;
}
`
	inputs := []string{"alpha,beta,,gamma\n", "one,two,three,four\n", "x,,y,,,z", "red\n"}
	engines := []sulong.Engine{sulong.EngineNative, sulong.EngineASan, sulong.EngineMemcheck}
	type key struct {
		in  int
		eng sulong.Engine
	}
	runOne := func(in int, eng sulong.Engine) string {
		res, err := sulong.Run(src, sulong.Config{Engine: eng, Stdin: strings.NewReader(inputs[in])})
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("exit %d bug %v fault %v: %s", res.ExitCode, res.Bug, res.Fault, res.Stdout)
	}
	ref := map[key]string{}
	for in := range inputs {
		for _, eng := range engines {
			ref[key{in, eng}] = runOne(in, eng)
		}
	}
	if got := ref[key{0, sulong.EngineNative}]; !strings.HasPrefix(got, "exit 0 bug <nil> fault <nil>: alpha:") {
		t.Fatalf("serial reference: %s", got)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for in := range inputs {
			for _, eng := range engines {
				wg.Add(1)
				go func(in int, eng sulong.Engine) {
					defer wg.Done()
					if got, want := runOne(in, eng), ref[key{in, eng}]; got != want {
						t.Errorf("input %d under %v diverged:\n got %q\nwant %q", in, eng, got, want)
					}
				}(in, eng)
			}
		}
	}
	wg.Wait()
}

// TestCacheHitNotMutated asserts that a cache hit returns a module
// bit-identical to the cold compile even after every engine has executed
// it — i.e. no run mutates the shared artifact.
func TestCacheHitNotMutated(t *testing.T) {
	src := corpus.All()[0].Source
	sulong.ResetCache()

	snapshots := map[sulong.Engine]string{}
	mods := map[sulong.Engine]*ir.Module{}
	for _, eng := range allEngines {
		mod, err := sulong.CompileFor(src, sulong.Config{Engine: eng, OptLevel: 3})
		if err != nil {
			t.Fatal(err)
		}
		snapshots[eng] = ir.Print(mod)
		mods[eng] = mod
	}
	before := sulong.CacheStats()

	// Exercise every engine against the shared modules, repeatedly, with
	// the managed engine's JIT on.
	c := corpus.All()[0]
	for round := 0; round < 2; round++ {
		for _, eng := range allEngines {
			cfg := sulong.Config{Engine: eng, OptLevel: 3, Args: c.Args, MaxSteps: 20_000_000, JIT: eng == sulong.EngineSafeSulong}
			if _, err := sulong.Run(src, cfg); err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
		}
	}

	after := sulong.CacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("expected cache hits during re-runs: before %+v after %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Errorf("re-runs must not miss: before %+v after %+v", before, after)
	}
	for _, eng := range allEngines {
		mod2, err := sulong.CompileFor(src, sulong.Config{Engine: eng, OptLevel: 3})
		if err != nil {
			t.Fatal(err)
		}
		if mod2 != mods[eng] {
			t.Errorf("%v: warm compile returned a different module object", eng)
		}
		if got := ir.Print(mod2); got != snapshots[eng] {
			t.Errorf("%v: cached module was mutated by execution", eng)
		}
	}
}

// TestMatrixSerialParallelIdentical is the determinism acceptance check:
// the rendered matrix over a corpus slice must be byte-identical for
// workers 1 and 4 and across cold/warm caches.
func TestMatrixSerialParallelIdentical(t *testing.T) {
	cases := corpus.All()[:12]

	sulong.ResetCache()
	serialCold := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: 1, Cases: cases}).Render()
	serialWarm := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: 1, Cases: cases}).Render()
	parallel4 := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: 4, Cases: cases}).Render()
	sulong.ResetCache()
	parallelCold := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: 4, Cases: cases}).Render()

	if serialCold != serialWarm {
		t.Errorf("cold vs warm cache changed results:\n%s\n---\n%s", serialCold, serialWarm)
	}
	if serialCold != parallel4 {
		t.Errorf("serial vs parallel changed results:\n%s\n---\n%s", serialCold, parallel4)
	}
	if serialCold != parallelCold {
		t.Errorf("parallel cold-cache run changed results:\n%s\n---\n%s", serialCold, parallelCold)
	}
}

// TestStringersGuardUnknownValues covers the out-of-range enum guards:
// RunModule admits unknown engines, so the stringers must not panic.
func TestStringersGuardUnknownValues(t *testing.T) {
	for _, s := range []fmt.Stringer{
		sulong.Engine(99), sulong.Engine(-1),
		harness.Tool(99), harness.Tool(-2),
		harness.PerfConfig(42), harness.PerfConfig(-1),
		pipeline.Flavor(7), pipeline.Flavor(-3),
	} {
		got := s.String()
		if got == "" {
			t.Errorf("%T: empty String() for out-of-range value", s)
		}
	}
	// Known values are unchanged, and unknown ones identify themselves.
	if sulong.EngineASan.String() != "ASan" {
		t.Errorf("EngineASan.String() = %q", sulong.EngineASan.String())
	}
	if harness.PerfConfig(42).String() != "PerfConfig(42)" {
		t.Errorf("PerfConfig(42).String() = %q", harness.PerfConfig(42).String())
	}
	if sulong.Engine(99).String() != "Engine(99)" {
		t.Errorf("Engine(99).String() = %q", sulong.Engine(99).String())
	}
}

// TestMatrixProgress checks the progress callback is serialized and
// complete.
func TestMatrixProgress(t *testing.T) {
	cases := corpus.All()[:3]
	var got []int
	harness.RunDetectionMatrixWith(harness.MatrixOptions{
		Workers: 4,
		Cases:   cases,
		Tools:   []harness.Tool{harness.SafeSulong, harness.NativeO0},
		Progress: func(done, total int) {
			if total != len(cases)*2 {
				t.Errorf("total = %d, want %d", total, len(cases)*2)
			}
			got = append(got, done)
		},
	})
	if len(got) != len(cases)*2 {
		t.Fatalf("progress called %d times, want %d", len(got), len(cases)*2)
	}
	for i, d := range got {
		if d != i+1 {
			t.Fatalf("progress out of order: %v", got)
		}
	}
}
