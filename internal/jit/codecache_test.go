package jit

// Concurrent-churn coverage for the executable-code cache, run under -race
// by the check gate: singleflight coalescing stays exact under eviction
// pressure, the LRU bound holds while many goroutines populate and evict,
// and a cache hit returns the published artifact without mutating it —
// mirroring the PR 1 module-cache hit-shares-identical-module pin.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
)

// cacheModSrc returns a distinct-content module whose @f doubles its input
// and adds k, so every variant compiles to a different unit but all are
// trivially checkable.
func cacheModSrc(k int) string {
	return fmt.Sprintf(`module "m%d"
func @f fn(i64) i64 regs 4 {
entry:
  %%r1 = mul i64 %%r0, 2
  %%r2 = add i64 %%r1, %d
  ret i64 %%r2
}
`, k, k)
}

// cacheMod parses and verifies cacheModSrc(k). The cache keys units by
// module identity, so engines meant to share a unit must share the module.
func cacheMod(t *testing.T, k int) *ir.Module {
	t.Helper()
	m, err := ir.Parse(cacheModSrc(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func cacheEngine(t *testing.T, m *ir.Module, cc *CodeCache) (*core.Engine, *Compiler, int) {
	t.Helper()
	comp := New()
	comp.Cache = cc
	e, err := core.NewEngine(m, core.Config{Tier1: comp, Tier1Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	fidx := m.FuncIndex("f")
	if fidx < 0 {
		t.Fatal("no @f in module")
	}
	return e, comp, fidx
}

// TestCodeCacheSingleflightCoalesces: many goroutines demanding the same
// function of the same unit must trigger exactly one lowering; everyone
// else waits on the entry and replays its counter delta.
func TestCodeCacheSingleflightCoalesces(t *testing.T) {
	cc := NewCodeCache(4)
	m := cacheMod(t, 1)
	const n = 16
	engs := make([]*core.Engine, n)
	comps := make([]*Compiler, n)
	fidx := 0
	for i := range engs {
		engs[i], comps[i], fidx = cacheEngine(t, m, cc)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	fns := make([]core.CompiledFunc, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			fns[i] = comps[i].Compile(engs[i], fidx)
		}(i)
	}
	start.Done()
	done.Wait()

	st := cc.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("singleflight broke: %d misses, %d hits, want 1 and %d", st.Misses, st.Hits, n-1)
	}
	for i, fn := range fns {
		if fn == nil {
			t.Fatalf("goroutine %d got a nil closure", i)
		}
	}
	// Counter parity: hit or miss, every compiler reports the identical
	// JITReport delta.
	want := comps[0].Snapshot()
	for i := 1; i < n; i++ {
		if got := comps[i].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("compiler %d counters %+v differ from %+v", i, got, want)
		}
	}
}

// TestCodeCacheConcurrentEvictionChurn: goroutines hammer more units than
// the cache holds. The LRU bound must hold at every observation point, the
// eviction counter must account for the churn, and every compile —
// coalesced, fresh, or re-compiled after eviction — must return a working
// closure (hits + misses == demands).
func TestCodeCacheConcurrentEvictionChurn(t *testing.T) {
	const capUnits = 2
	const mods = 6
	const workers = 8
	const rounds = 5
	cc := NewCodeCache(capUnits)

	engs := make([]*core.Engine, mods)
	comps := make([]*Compiler, mods)
	fidx := 0
	for i := range engs {
		engs[i], comps[i], fidx = cacheEngine(t, cacheMod(t, i), cc)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % mods
				if fn := comps[i].Compile(engs[i], fidx); fn == nil {
					t.Errorf("worker %d round %d: nil closure for module %d", w, r, i)
				}
				if st := cc.Stats(); st.Units > capUnits {
					t.Errorf("LRU bound violated: %d units, cap %d", st.Units, capUnits)
				}
			}
		}(w)
	}
	wg.Wait()

	st := cc.Stats()
	if st.Units > capUnits {
		t.Fatalf("final unit count %d exceeds cap %d", st.Units, capUnits)
	}
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("hits+misses = %d, want every demand accounted (%d)", st.Hits+st.Misses, workers*rounds)
	}
	if st.Evictions == 0 {
		t.Fatal("churn over 6 modules in a 2-unit cache evicted nothing")
	}
	if st.Misses < mods {
		t.Fatalf("only %d misses for %d distinct units", st.Misses, mods)
	}
}

// TestCodeCacheHitNotMutated mirrors the PR 1 module-cache pin: a hit must
// return the artifact the miss published, bit-for-bit — same funcEntry,
// same recorded counter delta, same behavior — and hitting must not grow
// or replace anything in the unit.
func TestCodeCacheHitNotMutated(t *testing.T) {
	cc := NewCodeCache(4)
	m := cacheMod(t, 3)
	e1, c1, fidx := cacheEngine(t, m, cc)
	e2, c2, _ := cacheEngine(t, m, cc)

	if fn := c1.Compile(e1, fidx); fn == nil {
		t.Fatal("miss returned nil closure")
	}
	u := cc.unitFor(e1.Module(), c1.fingerprint(), fidx)
	u.mu.Lock()
	fe1 := u.funcs[fidx]
	u.mu.Unlock()
	meta1 := fe1.meta

	if fn := c2.Compile(e2, fidx); fn == nil {
		t.Fatal("hit returned nil closure")
	}
	u.mu.Lock()
	fe2 := u.funcs[fidx]
	nfuncs := len(u.funcs)
	u.mu.Unlock()
	if fe2 != fe1 {
		t.Fatal("hit replaced the published funcEntry")
	}
	if fe2.meta != meta1 {
		t.Fatalf("hit mutated the recorded counter delta: %+v -> %+v", meta1, fe2.meta)
	}
	if nfuncs != 1 {
		t.Fatalf("hit grew the unit to %d entries", nfuncs)
	}
	if st := cc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want exactly 1 hit and 1 miss", st)
	}

	// The shared closure computes the same answer on both engines.
	for _, pair := range []*core.Engine{e1, e2} {
		pair.CallByName("f", []core.Value{core.IntValue(10)}) // warm past threshold
		got, err := pair.CallByName("f", []core.Value{core.IntValue(10)})
		if err != nil {
			t.Fatal(err)
		}
		if got.I != 23 {
			t.Fatalf("f(10) = %d, want 23", got.I)
		}
	}
}

// TestCodeCacheReleaseModule: releasing a module evicts its units (across
// fingerprints) and only its units — a separately parsed module with the
// same printed IR is a different key and keeps its unit — a never-cached
// module releases as a no-op, and a re-compile after release simply misses
// and works: release is an eviction, not an invalidation.
func TestCodeCacheReleaseModule(t *testing.T) {
	cc := NewCodeCache(8)
	m := cacheMod(t, 7)
	e1, c1, fidx := cacheEngine(t, m, cc)
	e2, c2, _ := cacheEngine(t, m, cc)
	c2.DisableMem2Reg = true // distinct fingerprint, same module
	twin := cacheMod(t, 7)
	if ir.Print(twin) != ir.Print(m) {
		t.Fatal("twin module prints differently")
	}
	eT, cT, _ := cacheEngine(t, twin, cc)

	if c1.Compile(e1, fidx) == nil || c2.Compile(e2, fidx) == nil || cT.Compile(eT, fidx) == nil {
		t.Fatal("compile returned nil closure")
	}
	if st := cc.Stats(); st.Units != 3 || st.Misses != 3 {
		t.Fatalf("expected 3 units and 3 misses (two fingerprints, one twin), got %+v", st)
	}

	cc.ReleaseModule(m)
	st := cc.Stats()
	if st.Units != 1 || st.Funcs != 1 {
		t.Fatalf("release of m should leave only the twin's unit: %+v", st)
	}
	if st.Evictions != 2 {
		t.Fatalf("release evicted %d units, want 2", st.Evictions)
	}
	if _, ok := cc.units[cacheKey{mod: twin, fp: cT.fingerprint()}]; !ok {
		t.Fatal("releasing m evicted the twin's unit")
	}

	// Releasing a module the cache never saw is a no-op.
	cc.ReleaseModule(cacheMod(t, 8))
	if got := cc.Stats().Evictions; got != 2 {
		t.Fatalf("no-op release bumped evictions to %d", got)
	}

	// Life after release: a fresh compile misses, repopulates, and runs.
	e3, c3, _ := cacheEngine(t, m, cc)
	if fn := c3.Compile(e3, fidx); fn == nil {
		t.Fatal("post-release compile returned nil closure")
	}
	if st := cc.Stats(); st.Units != 2 || st.Misses != 4 {
		t.Fatalf("post-release stats %+v, want 2 units and 4 misses", st)
	}
	got, err := e3.CallByName("f", []core.Value{core.IntValue(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 27 {
		t.Fatalf("f(10) = %d, want 27", got.I)
	}
}

// TestCodeCachePanicReleasesCompiler: a compile that panics inside the cache
// must not leave its Compiler locked. A background compile worker survives
// the panic and takes the next job on the same Compiler; a held lock would
// block that job forever, and Engine.Close with it.
func TestCodeCachePanicReleasesCompiler(t *testing.T) {
	cc := NewCodeCache(4)
	e, c, fidx := cacheEngine(t, cacheMod(t, 5), cc)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compiling an out-of-range function did not panic")
			}
		}()
		// An out-of-range index makes lowering panic, standing in for a
		// tier-1 compiler bug.
		c.Compile(e, len(e.Module().Funcs))
	}()

	done := make(chan core.CompiledFunc, 1)
	go func() { done <- c.Compile(e, fidx) }()
	select {
	case fn := <-done:
		if fn == nil {
			t.Fatal("compile after a panic returned nil closure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compile after a panic blocked: the Compiler stayed locked")
	}
}
