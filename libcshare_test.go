package sulong_test

// libc is compiled once per process: every program linked against the
// libc prefix shares one code-cache unit for libc's functions (see
// internal/jit/codecache.go). These tests pin the premise that makes that
// sound — a libc function compiles to the same code under every program
// that left libc's slots alone — and that a program which replaced one of
// them keeps its own unit.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/ir"
)

// Two different programs over the same hot libc functions (sprintf's and
// printf's formatting core, strlen, qsort), and one that brings its own
// strlen, which libc's puts and %s formatting call. qsort calls back into
// each program: B's comparator sits at a function index A does not have,
// so libc code compiled under A must bound-check indirect calls against
// the module running it.
const (
	libcUserA = `#include <stdio.h>
#include <stdlib.h>
#include <string.h>
static int up(const void *a, const void *b) { return *(const int *)a - *(const int *)b; }
int main(void) {
    char buf[32];
    int v[12];
    long n = 0;
    for (int i = 0; i < 40; i++) {
        sprintf(buf, "%d:%s", i, "ab");
        n += (long)strlen(buf);
    }
    for (int i = 0; i < 12; i++) v[i] = (i * 7) % 12;
    qsort(v, 12, sizeof v[0], up);
    printf("%ld %s %d %d\n", n, buf, v[0], v[11]);
    return 0;
}`
	libcUserB = `#include <stdio.h>
#include <stdlib.h>
#include <string.h>
static int twice(int x) { return 2 * x; }
static int thrice(int x) { return 3 * x; }
static int down(const void *a, const void *b) { return *(const int *)b - *(const int *)a; }
int main(void) {
    char buf[32];
    int v[12];
    for (int i = 0; i < 30; i++) {
        sprintf(buf, "%s=%d", "k", twice(i));
        if (strlen(buf) > 4) printf("%s\n", buf);
    }
    for (int i = 0; i < 12; i++) v[i] = thrice(i) % 10;
    qsort(v, 12, sizeof v[0], down);
    printf("%d %d\n", v[0], v[11]);
    return 0;
}`
	libcOwnStrlen = `#include <stdio.h>
#include <string.h>
size_t strlen(const char *s) {
    size_t n = 0;
    while (s[n]) n++;
    return n;
}
int main(void) {
    for (int i = 0; i < 30; i++) {
        puts("own");
        printf("%s-%d\n", "strlen", i);
    }
    return 0;
}`
)

// libcRun is one compiled-tier run of a program through the process-wide
// caches: its outcome, its JIT report, the functions it installed
// (split at the libc prefix) and the code cache's traffic during it.
type libcRun struct {
	out          harness.Outcome
	jit          *sulong.JITReport
	libc, user   int
	hits, misses uint64
}

// runLibcTier runs mod in tier and checks its Outcome against ref.
func runLibcTier(t *testing.T, name string, mod *ir.Module, tier harness.Tier, ref harness.Outcome) libcRun {
	t.Helper()
	cfg := sulong.Config{Engine: sulong.EngineSafeSulong, MaxSteps: harness.DefaultMaxSteps}
	tier.Configure(&cfg)
	var compiled []string
	cfg.OnCompile = func(fn string) { compiled = append(compiled, fn) }
	before := sulong.CodeCacheStats()
	res, err := sulong.RunModule(mod, cfg)
	after := sulong.CodeCacheStats()
	r := libcRun{out: harness.Classify(res, err), jit: res.JIT,
		hits: after.Hits - before.Hits, misses: after.Misses - before.Misses}
	if d := r.out.Diff(ref); d != "" {
		t.Errorf("%s/%s: %s", name, tier, d)
	}
	if r.out.Class != "clean" {
		t.Errorf("%s/%s: run ended in %s: %s", name, tier, r.out.Class, r.out.Report)
	}
	prefix := len(mod.Base().Funcs)
	for _, fn := range compiled {
		if mod.FuncIndex(fn) < prefix {
			r.libc++
		} else {
			r.user++
		}
	}
	return r
}

// libcRef is a program's tier-0 run on a privately compiled module.
func libcRef(t *testing.T, src string) harness.Outcome {
	t.Helper()
	res, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineSafeSulong, MaxSteps: harness.DefaultMaxSteps, NoCache: true})
	return harness.Classify(res, err)
}

// TestCodeCacheSharesLibcAcrossPrograms compiles libc under one program,
// then runs it under a second in every tier: each run equals tier-0 on a
// private module, and the second program's libc compiles are all hits —
// its only misses are its own functions. A program that defines its own
// strlen, which libc calls, shares nothing and still matches.
func TestCodeCacheSharesLibcAcrossPrograms(t *testing.T) {
	for i, src := range []string{libcUserA, libcUserB} {
		name := string(rune('A' + i))
		mod, err := sulong.CompileFor(src, sulong.Config{Engine: sulong.EngineSafeSulong})
		if err != nil {
			t.Fatal(err)
		}
		if mod.Base() == nil {
			t.Fatalf("%s: module does not extend the libc prefix", name)
		}
		ref := libcRef(t, src)
		for _, tier := range harness.Tiers() {
			r := runLibcTier(t, name, mod, tier, ref)
			if i == 0 || tier != harness.Tier1 {
				continue
			}
			// The first compiled run of the second program: libc is warm.
			if r.libc == 0 {
				t.Fatalf("B/%s: compiled no libc function; the pin needs hot libc code", tier)
			}
			if r.jit.Bailed != 0 || r.misses != uint64(r.user) || r.hits < uint64(r.libc) {
				t.Errorf("B/%s: %d misses and %d hits for %d user and %d libc compiles (%d bailed); want misses = user, hits >= libc",
					tier, r.misses, r.hits, r.user, r.libc, r.jit.Bailed)
			}
		}
	}

	mod, err := sulong.CompileFor(libcOwnStrlen, sulong.Config{Engine: sulong.EngineSafeSulong})
	if err != nil {
		t.Fatal(err)
	}
	idx := mod.FuncIndex("strlen")
	if idx < 0 || idx >= len(mod.Base().Funcs) || mod.Funcs[idx] == mod.Base().Funcs[idx] {
		t.Fatalf("own strlen did not replace libc's slot %d", idx)
	}
	ref := libcRef(t, libcOwnStrlen)
	if !strings.HasPrefix(ref.Stdout, "own\nstrlen-0\n") {
		t.Fatalf("own-strlen reference printed %q", ref.Stdout)
	}
	for _, tier := range harness.Tiers() {
		r := runLibcTier(t, "own-strlen", mod, tier, ref)
		if tier == harness.Tier1 && (r.libc == 0 || r.hits != 0 || r.misses != uint64(r.libc+r.user+r.jit.Bailed)) {
			t.Errorf("own-strlen/%s: %d misses and %d hits for %d libc and %d user compiles (%d bailed); want every compile its own miss",
				tier, r.misses, r.hits, r.libc, r.user, r.jit.Bailed)
		}
	}
}

// TestConcurrentLibcSharingWithDeopt fills the shared libc unit from two
// goroutines at once, from a cold code cache: one runs a formatting-heavy
// program, the other the parity table's deopt-loop program with OSR armed,
// whose post-deopt private lowering of main sits beside the shared one.
// Every run must equal tier-0 on a private module.
func TestConcurrentLibcSharingWithDeopt(t *testing.T) {
	sulong.ResetCodeCache()
	refs := map[string]harness.Outcome{
		libcUserA:     libcRef(t, libcUserA),
		deoptLoop.src: libcRef(t, deoptLoop.src),
	}
	var wg sync.WaitGroup
	for _, src := range []string{libcUserA, deoptLoop.src} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, tier := range harness.Tiers()[1:] {
					cfg := deoptLoop.config(tier, fault.Plan{})
					osrOnly := src == deoptLoop.src && tier == harness.Tier1
					if osrOnly {
						// Entry compilation unreachable: main runs compiled
						// only through OSR, so its speculation deopts.
						cfg.JITThreshold, cfg.OSRThreshold = 1<<30, 1
					}
					res, err := sulong.Run(src, cfg)
					where := fmt.Sprintf("round %d/%s/%.20q", round, tier, src)
					if d := harness.Classify(res, err).Diff(refs[src]); d != "" {
						t.Errorf("%s: %s", where, d)
					}
					if osrOnly && (res.JIT == nil || res.JIT.Deopts == 0) {
						t.Errorf("%s: no deopt: %+v", where, res.JIT)
					}
				}
			}
		}()
	}
	wg.Wait()
}
