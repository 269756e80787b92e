package pipeline

import (
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/ir"
	"repro/internal/libc"
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
	// The cache keeps no failure: the retry misses, compiles again and
	// fails the same way, and no entry is left behind.
	if _, err := c.Compile(req); err == nil {
		t.Fatal("expected the compile error again")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 || s.Entries != 0 {
		t.Errorf("stats %+v, want 0 hits, 2 misses, 0 entries", s)
	}
}

// compileWithin compiles req on c, returning its error, or its panic as an
// error, and fails the test if the compile has not returned within a few
// seconds.
func compileWithin(t *testing.T, c *Cache, req Request) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, err := c.Compile(req)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("compile still blocked after 5s")
		return nil
	}
}

// TestCacheCompilePanicDoesNotWedge: a compile that panics in the front end
// leaves no entry for the next compile of the same source to wait on. A
// managed prefix entry holding a nil prefix makes every compile panic.
func TestCacheCompilePanicDoesNotWedge(t *testing.T) {
	c := NewCache()
	ready := make(chan struct{})
	close(ready)
	c.prefixes[0] = &cell[*cc.Prefix]{ready: ready}
	req := Request{Source: testSrc, Flavor: FlavorManaged}
	for i := 1; i <= 2; i++ {
		if err := compileWithin(t, c, req); err == nil {
			t.Fatalf("compile %d over a nil prefix succeeded", i)
		}
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("%d entries after panicked compiles, want 0", s.Entries)
	}
}

// TestCachePrefixPanicDoesNotWedge: a libc-prefix build that panics leaves
// no prefix for later managed compiles to wait on; the next one builds it.
func TestCachePrefixPanicDoesNotWedge(t *testing.T) {
	c := NewCache()
	c.buildPrefix = func(bool) (*cc.Prefix, []StageTiming, error) { panic("injected prefix-build panic") }
	req := Request{Source: testSrc, Flavor: FlavorManaged}
	if err := compileWithin(t, c, req); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("compile over a panicking prefix build: %v, want its panic", err)
	}
	c.buildPrefix = buildPrefix
	if err := compileWithin(t, c, req); err != nil {
		t.Fatalf("compile after the panicked prefix build: %v", err)
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

// TestCacheKeysStable pins the content addresses of a fixed file set to
// golden digests: Fingerprint's, and the cache key address gives each
// flavor and hardening with and without ExtraFiles (native keys ignore the
// hardening), so a rewrite of how keys are hashed cannot move one. The
// keys frame the bundled libc's digest, pinned too: an edit to libc moves
// libcDigest and every key with it.
func TestCacheKeysStable(t *testing.T) {
	if got, want := Fingerprint("m.c", map[string]string{"m.c": "int main;", "x.h": "#define X 1\n"}),
		"fd90bb456dfe7fc1f84bf79a9252be64dfbee25105c01f74ca802b3d2a50f443"; got != want {
		t.Errorf("Fingerprint = %s, want %s", got, want)
	}
	if got, want := libcDigest(), "6eb0bf20045220f0a12ada427e07821f359a9d7d4d8feb04ad8be7713f20c6cc"; got != want {
		t.Fatalf("libcDigest = %s, want %s: the bundled libc changed, so every key below moved", got, want)
	}
	const src = "#include \"cfg.h\"\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", LIMIT); return 0; }\n"
	extra := map[string]string{"cfg.h": "#define LIMIT 7\n", "util/a.h": "int a;\n"}
	for _, tc := range []struct {
		flavor   Flavor
		hardened bool
		extra    map[string]string
		want     string
	}{
		{FlavorManaged, false, nil, "574a1d7b14f81d94d85c279448fa232d5acf168a76db35c4ea0f58632b6fd9c7"},
		{FlavorManaged, false, extra, "4204d73ca77313634bd143ee0787ca01eebddcf1004f62f2367c83091f1a4a82"},
		{FlavorManaged, true, nil, "19bb3a17a73806149213cf95d2932a38d625623d55e5bcc5aba94e2797fe0c9d"},
		{FlavorManaged, true, extra, "795a02404aa92d02fbfbb4ea67f570aba7927d7af590518fa2be36ce8f74f378"},
		{FlavorNative, false, nil, "c2bec90411eeaaad90f204968dc134495b4592a2c93c6eb5288b96ab10dee398"},
		{FlavorNative, false, extra, "a7b9fb8dfd37cd379fbea24ed5446f8ad3e597d7507260994b8515fd34bc698b"},
		{FlavorNative, true, nil, "c2bec90411eeaaad90f204968dc134495b4592a2c93c6eb5288b96ab10dee398"},
		{FlavorNative, true, extra, "a7b9fb8dfd37cd379fbea24ed5446f8ad3e597d7507260994b8515fd34bc698b"},
	} {
		req := Request{Source: src, ExtraFiles: tc.extra, Flavor: tc.flavor, Hardened: tc.hardened}
		where := fmt.Sprintf("%v hardened=%v extra=%v", tc.flavor, tc.hardened, tc.extra != nil)
		sum := address(req)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: address = %s, want %s", where, got, tc.want)
		}
		files, err := userFiles(req)
		if err != nil {
			t.Fatal(err)
		}
		unit := userFile
		if tc.flavor == FlavorManaged {
			unit = libc.UnitFile
			if tc.hardened {
				unit += "+hardened"
			}
		}
		if got := Fingerprint(unit+"\x00"+libcDigest(), files); got != tc.want {
			t.Errorf("%s: Fingerprint of the unit's files = %s, want %s", where, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { address(req) }); n != 0 {
			t.Errorf("%s: address allocates %.0f times, want 0", where, n)
		}
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
