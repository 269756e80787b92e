package pipeline

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
)

const testSrc = `#include <stdio.h>
int main(void) { printf("hi\n"); return 0; }`

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache()
	req := Request{Source: testSrc, Flavor: FlavorManaged}

	r1, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first compile must be a miss")
	}
	if len(r1.Stages) == 0 {
		t.Error("miss should report stage timings")
	}
	r2, err := c.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("second compile must be a hit")
	}
	if r2.Module != r1.Module {
		t.Error("cache hit must share the identical module")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if got := s.HitRate; got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestKeySeparation(t *testing.T) {
	c := NewCache()
	managed, err := c.Compile(Request{Source: testSrc, Flavor: FlavorManaged})
	if err != nil {
		t.Fatal(err)
	}
	nativeO0, err := c.Compile(Request{Source: testSrc, Flavor: FlavorNative, OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	nativeO3, err := c.Compile(Request{Source: testSrc, Flavor: FlavorNative, OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]*ir.Module{
		"managed": managed.Module, "nativeO0": nativeO0.Module,
		"nativeO3": nativeO3.Module,
	}
	seen := map[*ir.Module]string{}
	for name, m := range mods {
		if prev, dup := seen[m]; dup {
			t.Errorf("%s and %s share a module; keys must separate them", prev, name)
		}
		seen[m] = name
	}
	// Managed ignores OptLevel: O3 managed is the same entry as O0 managed.
	managedO3, err := c.Compile(Request{Source: testSrc, Flavor: FlavorManaged, OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if managedO3.Module != managed.Module || !managedO3.CacheHit {
		t.Error("managed flavor must normalize OptLevel into a single entry")
	}
	// OptLevel 2 and 3 normalize to the same native pipeline.
	nativeO2, err := c.Compile(Request{Source: testSrc, Flavor: FlavorNative, OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nativeO2.Module != nativeO3.Module || !nativeO2.CacheHit {
		t.Error("opt levels >= 2 must share the O3 entry")
	}
}

func TestOptLevelsShareFrontend(t *testing.T) {
	c := NewCache()
	if _, err := c.Compile(Request{Source: testSrc, Flavor: FlavorNative, OptLevel: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(Request{Source: testSrc, Flavor: FlavorNative, OptLevel: 3}); err != nil {
		t.Fatal(err)
	}
	// Two module entries plus one shared front-end entry: the O3 compile
	// must not have re-run preprocess/parse/lower.
	s := c.Stats()
	if s.Entries != 3 {
		t.Errorf("entries = %d, want 3 (two modules + one shared frontend)", s.Entries)
	}
}

func TestConcurrentCompilesCoalesce(t *testing.T) {
	c := NewCache()
	req := Request{Source: testSrc, Flavor: FlavorManaged}
	const n = 16
	mods := make([]*ir.Module, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := c.Compile(req)
			if err != nil {
				t.Error(err)
				return
			}
			mods[i] = res.Module
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if mods[i] != mods[0] {
			t.Fatalf("goroutine %d got a different module", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", s.Misses)
	}
	if s.Hits != n-1 {
		t.Errorf("hits = %d, want %d", s.Hits, n-1)
	}
}

func TestStageTimingsRecorded(t *testing.T) {
	c := NewCache()
	res, err := c.Compile(Request{Source: testSrc, Flavor: FlavorNative, OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		StageAssemble: false, StagePreprocess: false, StageParse: false,
		StageLower: false, StageNativeOpt: false, StageVerify: false,
	}
	for _, st := range res.Stages {
		if _, ok := want[st.Stage]; ok {
			want[st.Stage] = true
		}
	}
	for stage, seen := range want {
		if !seen {
			t.Errorf("stage %q missing from timings %v", stage, res.Stages)
		}
	}
}

func TestCompileErrorPropagatesToWaiters(t *testing.T) {
	c := NewCache()
	req := Request{Source: "int main(void) { return undeclared; }", Flavor: FlavorManaged}
	if _, err := c.Compile(req); err == nil {
		t.Fatal("expected compile error")
	}
	// The error is cached too: the retry observes the same failure without
	// counting as a hit.
	if _, err := c.Compile(req); err == nil {
		t.Fatal("expected cached compile error")
	}
	if s := c.Stats(); s.Hits != 0 {
		t.Errorf("error lookups must not count as hits, got %+v", s)
	}
}

func TestFingerprintFraming(t *testing.T) {
	a := Fingerprint("m.c", map[string]string{"m.c": "ab", "x": "c"})
	b := Fingerprint("m.c", map[string]string{"m.c": "a", "x": "bc"})
	if a == b {
		t.Error("length framing must keep shifted contents distinct")
	}
	c1 := Fingerprint("m.c", map[string]string{"m.c": "int main;"})
	c2 := Fingerprint("m.c", map[string]string{"m.c": "int main;"})
	if c1 != c2 {
		t.Error("fingerprint must be deterministic")
	}
	if Fingerprint("a.c", map[string]string{"a.c": "x", "b.c": "x"}) ==
		Fingerprint("b.c", map[string]string{"a.c": "x", "b.c": "x"}) {
		t.Error("main file must be part of the address")
	}
}

func TestExtraFilesAddressed(t *testing.T) {
	c := NewCache()
	src := `#include "cfg.h"
int main(void) { return LIMIT; }`
	r1, err := c.Compile(Request{Source: src, Flavor: FlavorNative,
		ExtraFiles: map[string]string{"cfg.h": "#define LIMIT 1\n"}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Compile(Request{Source: src, Flavor: FlavorNative,
		ExtraFiles: map[string]string{"cfg.h": "#define LIMIT 2\n"}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHit || r1.Module == r2.Module {
		t.Error("different ExtraFiles must produce different cache entries")
	}
}

// TestWarmCacheSpeedup is the acceptance criterion's >= 5x compile-path
// speedup on a warm cache, measured directly.
func TestWarmCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c := NewCache()
	req := Request{Source: testSrc, Flavor: FlavorManaged}
	cold := timeCompile(t, c, req, 3, true)
	warm := timeCompile(t, c, req, 25, false)
	ratio := float64(cold) / float64(warm)
	t.Logf("cold %v, warm %v, speedup %.0fx", cold, warm, ratio)
	if ratio < 5 {
		t.Errorf("warm-cache speedup %.1fx, want >= 5x", ratio)
	}
}

func BenchmarkCompileColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCache()
		if _, err := c.Compile(Request{Source: testSrc, Flavor: FlavorManaged}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileWarmCache(b *testing.B) {
	c := NewCache()
	if _, err := c.Compile(Request{Source: testSrc, Flavor: FlavorManaged}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(Request{Source: testSrc, Flavor: FlavorManaged}); err != nil {
			b.Fatal(err)
		}
	}
}

func timeCompile(t *testing.T, c *Cache, req Request, iters int, reset bool) time.Duration {
	t.Helper()
	var total time.Duration
	for i := 0; i < iters; i++ {
		if reset {
			c.Reset()
		}
		t0 := time.Now()
		if _, err := c.Compile(req); err != nil {
			t.Fatal(err)
		}
		total += time.Since(t0)
	}
	return total / time.Duration(iters)
}
