package core

import (
	"testing"

	"repro/internal/ir"
)

// poolModSrc exercises enough engine state to make a sloppy Reset visible:
// heap allocation, stdout, and a mutated global.
const poolModSrc = `module "pool"
global @g i64 = int 7
declare @malloc fn(i64) ptr
declare @free fn(ptr) void
func @main fn() i32 regs 6 {
entry:
  %r0 = load i64, @g
  %r1 = add i64 %r0, 1
  store i64 %r1, @g
  %r2 = call ptr &malloc(i64 16) fixed 1
  call void &free(ptr %r2) fixed 1
  %r3 = trunc i64 %r1 to i32
  ret i32 %r3
}
`

// TestEnginePoolResetReuse pins the pool's contract: a parked engine comes
// back Reset — and a run on it is indistinguishable from a run on a fresh
// engine (exit code, Steps, Calls), including the mutated-global rollback.
func TestEnginePoolResetReuse(t *testing.T) {
	m := buildModule(t, poolModSrc)
	p := NewEnginePool(0)

	e1, err := p.Get(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	code1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats1 := e1.Stats()
	p.Put(e1)

	if st := p.Stats(); st.Misses != 1 || st.Hits != 0 || st.Idle != 1 {
		t.Fatalf("after first cycle: %+v, want 1 miss, 0 hits, 1 idle", st)
	}

	e2, err := p.Get(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatal("pool built a new engine while one was parked")
	}
	if st := p.Stats(); st.Hits != 1 || st.Idle != 0 {
		t.Fatalf("after reuse get: %+v, want 1 hit, 0 idle", st)
	}
	code2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats2 := e2.Stats()
	p.Put(e2)

	// The global @g was incremented by run 1; Reset must have rolled it back
	// or the second run would exit 9, run more steps, or both.
	if code2 != code1 {
		t.Fatalf("reused engine exited %d, fresh exited %d", code2, code1)
	}
	if stats2.Steps != stats1.Steps || stats2.Calls != stats1.Calls {
		t.Fatalf("reused engine ran %d steps/%d calls, fresh ran %d/%d",
			stats2.Steps, stats2.Calls, stats1.Steps, stats1.Calls)
	}
}

// TestEnginePoolIdleLimit pins the per-module retention bound: parking more
// engines than the limit drops the surplus instead of growing without bound.
func TestEnginePoolIdleLimit(t *testing.T) {
	m := buildModule(t, poolModSrc)
	const limit = 2
	p := NewEnginePool(limit)

	engs := make([]*Engine, limit+2)
	for i := range engs {
		e, err := p.Get(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = e
	}
	for _, e := range engs {
		p.Put(e)
	}
	if st := p.Stats(); st.Idle != limit {
		t.Fatalf("pool retains %d idle engines, limit is %d", st.Idle, limit)
	}

	p.Reset()
	if st := p.Stats(); st.Idle != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
}

// TestEnginePoolRelease pins the retire path: releasing a module drops its
// idle engines and unregisters it while other modules' engines stay
// parked, and a post-release Get simply constructs cold.
func TestEnginePoolRelease(t *testing.T) {
	m1 := buildModule(t, poolModSrc)
	m2 := buildModule(t, poolModSrc)
	p := NewEnginePool(2)

	for _, m := range []*ir.Module{m1, m2} {
		e, err := p.Get(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		p.Put(e)
	}
	if st := p.Stats(); st.Idle != 2 {
		t.Fatalf("setup parked %d engines, want 2", st.Idle)
	}

	p.Release(m1)
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("release left %d idle engines, want 1 (m2's)", st.Idle)
	}
	p.pool.mu.Lock()
	_, m1Registered := p.pool.idle[m1]
	p.pool.mu.Unlock()
	if m1Registered {
		t.Fatal("release left m1 registered")
	}

	// Releasing an unknown module is a no-op.
	p.Release(buildModule(t, poolModSrc))
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("no-op release dropped engines: %+v", p.Stats())
	}

	// A released module still runs — the next Get is just a cold miss.
	e, err := p.Get(m1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if code, err := e.Run(); err != nil || code != 8 {
		t.Fatalf("post-release run: code=%d err=%v, want 8", code, err)
	}
	p.Put(e)
	if st := p.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("post-release stats %+v, want 3 misses (2 setup + 1 cold)", st)
	}
}

// TestEnginePoolDropsPutAfterRelease pins module ownership: an engine
// checked out when its module is released is dropped at Put, not parked
// again, and so is one Put after the pool was Reset.
func TestEnginePoolDropsPutAfterRelease(t *testing.T) {
	m := buildModule(t, poolModSrc)
	p := NewEnginePool(0)
	for _, retire := range []func(){func() { p.Release(m) }, p.Reset} {
		e, err := p.Get(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		retire()
		p.Put(e)
		if st := p.Stats(); st.Idle != 0 {
			t.Fatalf("an engine of a retired module was parked: %+v", st)
		}
	}
}

// TestEnginePoolHasNoGlobalBound pins that many modules each keep their
// parked engine: the pool is bounded per module, and by module ownership,
// not by a total count.
func TestEnginePoolHasNoGlobalBound(t *testing.T) {
	p := NewEnginePool(1)
	var mods []*ir.Module
	for range 40 {
		m := buildModule(t, poolModSrc)
		mods = append(mods, m)
		e, err := p.Get(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		p.Put(e)
	}
	for _, m := range mods {
		e, err := p.Get(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		p.Put(e)
	}
	if st := p.Stats(); st.Hits != 40 || st.Misses != 40 || st.Idle != 40 {
		t.Fatalf("stats %+v, want 40 hits, 40 misses, 40 idle", st)
	}
}
