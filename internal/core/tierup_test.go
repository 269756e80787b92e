package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// blockingCompiler is a fake tier-1 compiler whose Compile parks until the
// test releases it — a deterministic way to hold a background compilation
// in flight while the run is cancelled out from under it.
type blockingCompiler struct {
	started  chan struct{} // closed when Compile begins
	release  chan struct{} // Compile parks until this closes
	once     atomic.Bool
	executed atomic.Bool // set if the produced closure ever runs
}

func (c *blockingCompiler) Compile(e *Engine, fidx int) CompiledFunc {
	if c.once.CompareAndSwap(false, true) {
		close(c.started)
	}
	<-c.release
	return func(e *Engine, fr *Frame) (Value, error) {
		c.executed.Store(true)
		return Value{}, nil
	}
}

func (c *blockingCompiler) CompileOSR(e *Engine, fidx, header int) CompiledFunc { return nil }

// asyncLoopModule is a program that stays hot forever: main loops calling
// @hot, so with Tier1Threshold 1 the second call enqueues a background
// compilation and the interpreter keeps spinning until the governor stops it.
const asyncLoopModule = `module "t"
func @hot fn() i32 regs 2 {
entry:
  %r0 = add i32 1, 2
  ret i32 %r0
}
func @main fn() i32 regs 2 {
entry:
  br loop
loop:
  %r0 = call i32 &hot() fixed 0
  br loop
}
`

// TestAsyncCompileGovernorCancellation races run cancellation against an
// in-flight background compilation: the governor stops the run while the
// compile worker is parked inside Compile. The run must wind down without
// waiting for the compiler, the late result must never be installed (the
// mailbox is sealed at Close), and no pool goroutine may outlive Close.
func TestAsyncCompileGovernorCancellation(t *testing.T) {
	m := buildModule(t, asyncLoopModule)
	baseline := runtime.NumGoroutine()

	bc := &blockingCompiler{started: make(chan struct{}), release: make(chan struct{})}
	gov := &Governor{}
	e, err := NewEngine(m, Config{
		Tier1:          bc,
		Tier1Threshold: 1,
		AsyncJIT:       true,
		Governor:       gov,
	})
	if err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	go func() {
		_, rerr := e.Run()
		runDone <- rerr
	}()

	// Wait until the worker is provably mid-compile, then cancel the run.
	select {
	case <-bc.started:
	case <-time.After(5 * time.Second):
		t.Fatal("background compile never started")
	}
	gov.Stop("test cancellation")

	// The run must terminate promptly even though the compile is still
	// parked: cancellation may never block behind the compile pool.
	select {
	case rerr := <-runDone:
		if _, ok := rerr.(*DeadlineError); !ok {
			t.Fatalf("run returned %v, want *DeadlineError", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not terminate while a compile was in flight")
	}

	// Let the parked compile finish; its result is published into the
	// mailbox after the run is already gone. Close must join the workers and
	// seal the mailbox so the result is dropped, not installed.
	close(bc.release)
	e.Close()

	st := e.Stats()
	if st.Tier1Funcs != 0 || st.AsyncInstalls != 0 {
		t.Errorf("late compile was installed after teardown: Tier1Funcs=%d AsyncInstalls=%d",
			st.Tier1Funcs, st.AsyncInstalls)
	}
	if bc.executed.Load() {
		t.Error("compiled closure executed after cancellation")
	}

	// No pool goroutine may survive Close. The count needs a few polls: the
	// last worker is between publishing and returning when Close's Wait
	// unblocks us.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked past Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncCloseIdempotentAndSyncFallback pins Close's contract: closing
// twice is safe, and a closed engine still runs correctly by falling back to
// synchronous tier-up.
func TestAsyncCloseIdempotentAndSyncFallback(t *testing.T) {
	m := buildModule(t, `module "t"
func @hot fn() i32 regs 2 {
entry:
  %r0 = add i32 20, 22
  ret i32 %r0
}
func @main fn() i32 regs 2 {
entry:
  %r0 = call i32 &hot() fixed 0
  %r1 = call i32 &hot() fixed 0
  ret i32 %r1
}
`)
	passthrough := &countingCompiler{}
	e, err := NewEngine(m, Config{Tier1: passthrough, Tier1Threshold: 1, AsyncJIT: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	code, err := e.Run()
	if err != nil || code != 42 {
		t.Fatalf("closed engine run: got (%d, %v), want (42, nil)", code, err)
	}
	// After Close the pool is gone, so tier-up went through the synchronous
	// path: the compile happened on the engine thread.
	if n := passthrough.calls.Load(); n == 0 {
		t.Error("synchronous fallback never compiled the hot function")
	}
}

// countingCompiler counts Compile calls and keeps every function interpreted.
type countingCompiler struct{ calls atomic.Int32 }

func (c *countingCompiler) Compile(e *Engine, fidx int) CompiledFunc {
	c.calls.Add(1)
	return nil
}

func (c *countingCompiler) CompileOSR(e *Engine, fidx, header int) CompiledFunc { return nil }

// panickingCompiler is a fake tier-1 compiler with a bug: every Compile
// panics.
type panickingCompiler struct{}

func (panickingCompiler) Compile(e *Engine, fidx int) CompiledFunc {
	panic("tier-1 compiler bug")
}

func (panickingCompiler) CompileOSR(e *Engine, fidx, header int) CompiledFunc { return nil }

// TestAsyncCompilePanicReachesCaller: a tier-1 compiler panic must surface
// on the goroutine that called Run — where the facade's containment turns it
// into an InternalError — whether the compile ran synchronously or on a
// background worker, and Close must still return. A worker that let the
// panic escape would kill the whole process instead.
func TestAsyncCompilePanicReachesCaller(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			m := buildModule(t, asyncLoopModule)
			e, err := NewEngine(m, Config{
				Tier1:          panickingCompiler{},
				Tier1Threshold: 1,
				AsyncJIT:       async,
				// Backstop: the loop never ends, so a panic that never
				// arrives shows up as a LimitError, not a hang.
				MaxSteps: 100_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			var got any
			func() {
				defer func() { got = recover() }()
				_, err = e.Run()
			}()
			if got != "tier-1 compiler bug" {
				t.Fatalf("Run recovered %v (err %v), want the compiler's panic", got, err)
			}
			closed := make(chan struct{})
			go func() {
				e.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close hung after a compile panic")
			}
		})
	}
}

// hotOnlyCompiler compiles @hot to a closure returning 1 and bails on every
// other function.
type hotOnlyCompiler struct{}

func (hotOnlyCompiler) Compile(e *Engine, fidx int) CompiledFunc {
	if e.mod.Funcs[fidx].Name != "hot" {
		return nil
	}
	return func(e *Engine, fr *Frame) (Value, error) { return IntValue(1), nil }
}

func (hotOnlyCompiler) CompileOSR(e *Engine, fidx, header int) CompiledFunc { return nil }

// untilCompiledModule calls @hot until it returns non-zero, which only its
// compiled form does: the run ends exactly when @hot's compiled code is
// installed and dispatched to.
const untilCompiledModule = `module "t"
func @hot fn() i32 regs 1 {
entry:
  ret i32 0
}
func @main fn() i32 regs 2 {
entry:
  br loop
loop:
  %r0 = call i32 &hot() fixed 0
  %r1 = cmp eq i32 %r0, 0
  condbr %r1, loop, done
done:
  ret i32 0
}
`

// TestTier1OnePathAcrossModes pins the one request/install path in each of
// its three settings: synchronous, asynchronous, and an async engine closed
// before it runs. Every mode fires OnCompile once for the one compiled
// function. The synchronous settings compile on the call that reaches the
// threshold and run that very call compiled; only background results count
// as AsyncInstalls.
func TestTier1OnePathAcrossModes(t *testing.T) {
	const threshold = 3
	for _, mode := range []string{"sync", "async", "closed"} {
		t.Run(mode, func(t *testing.T) {
			var names []string
			e, err := NewEngine(buildModule(t, untilCompiledModule), Config{
				Tier1:          hotOnlyCompiler{},
				Tier1Threshold: threshold,
				AsyncJIT:       mode != "sync",
				OnCompile:      func(name string) { names = append(names, name) },
				MaxSteps:       10_000_000, // backstop: @hot never installed
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if mode == "closed" {
				e.Close()
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			e.Close()
			st := e.Stats()
			if len(names) != 1 || names[0] != "hot" || st.Tier1Funcs != 1 {
				t.Errorf("OnCompile fired for %v, Tier1Funcs=%d; want [hot] once", names, st.Tier1Funcs)
			}
			wantInstalls := int64(0)
			if mode == "async" {
				wantInstalls = 1
			}
			if st.AsyncInstalls != wantInstalls {
				t.Errorf("AsyncInstalls=%d, want %d", st.AsyncInstalls, wantInstalls)
			}
			if mode == "async" {
				return // which call first runs compiled depends on the worker
			}
			// main plus the threshold-1 calls before @hot compiles run
			// interpreted; the threshold-th call is the one compiled call.
			if st.InterpCalls != threshold || st.Tier1Calls != 1 {
				t.Errorf("InterpCalls=%d Tier1Calls=%d, want %d and 1", st.InterpCalls, st.Tier1Calls, threshold)
			}
		})
	}
}

// TestTier1BailCompilesOnce: a bail is deterministic, so a function whose
// compile bails is never requested again, however hot it stays, in either
// mode.
func TestTier1BailCompilesOnce(t *testing.T) {
	for _, async := range []bool{false, true} {
		cc := &countingCompiler{}
		e, err := NewEngine(buildModule(t, asyncLoopModule), Config{
			Tier1:          cc,
			Tier1Threshold: 2, // main runs once and never reaches it
			AsyncJIT:       async,
			MaxSteps:       100_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err == nil {
			t.Fatalf("async=%v: endless loop finished", async)
		}
		e.Close()
		if n := cc.calls.Load(); n != 1 {
			t.Errorf("async=%v: bailing compiler called %d times over %d calls, want 1", async, n, e.Stats().Calls)
		}
	}
}

// TestTier1NegativeThresholdActsAsOne: both modes compile on the call whose
// count reaches the threshold, so a negative threshold compiles every
// function at its first call, in sync and async alike.
func TestTier1NegativeThresholdActsAsOne(t *testing.T) {
	for _, async := range []bool{false, true} {
		cc := &countingCompiler{}
		e, err := NewEngine(buildModule(t, untilCompiledModule), Config{
			Tier1:          cc,
			Tier1Threshold: -1,
			AsyncJIT:       async,
			MaxSteps:       100_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		// countingCompiler never installs, so the loop ends at MaxSteps.
		if _, err := e.Run(); err == nil {
			t.Fatalf("async=%v: endless loop finished", async)
		}
		e.Close()
		if n := cc.calls.Load(); n != 2 {
			t.Errorf("async=%v: %d compiles, want 2 (main and hot at their first call)", async, n)
		}
	}
}
