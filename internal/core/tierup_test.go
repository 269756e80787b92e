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
