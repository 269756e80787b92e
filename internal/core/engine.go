package core

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/memdesc"
)

// Value is a scalar during managed execution: an integer (canonical
// sign-extended form), a float, or a managed pointer. Exactly one of the
// fields is meaningful per use; the IR's types say which.
type Value struct {
	I int64
	F float64
	P Pointer
}

// IntValue, FloatValue, and PtrValue build Values.
func IntValue(v int64) Value     { return Value{I: v} }
func FloatValue(v float64) Value { return Value{F: v} }
func PtrValue(p Pointer) Value   { return Value{P: p} }

// Frame is one managed activation record.
type Frame struct {
	Fn *ir.Func
	// FnIdx is Fn's module index (set by invoke); the back-edge profiler
	// counts hotness and keys OSR requests on it without a name lookup.
	FnIdx int
	Regs  []Value
	// VarArgs holds the boxed variadic arguments for this call: one managed
	// cell pointer per extra argument (paper §3.4, "Variadic argument
	// errors"). The slice is a window of the caller's argument vector on
	// the engine's argument stack, which owns and clears it.
	VarArgs []Value
	// Autos tracks this frame's stack objects when use-after-return
	// detection is on; they are invalidated when the frame pops.
	Autos []*Object
	// stackBytes is the total charged size of this frame's alloca objects;
	// the bytes are returned to the fault injector's budget when the frame
	// pops (the managed analogue of resetting the stack pointer).
	stackBytes int64
}

// Builtin is a function implemented in Go, playing the role of the paper's
// Java methods that "serve the same purpose as system calls" (§3.1).
type Builtin func(e *Engine, fr *Frame, args []Value) (Value, error)

// Tier1Compiler is implemented by internal/jit: it turns a hot function into
// a directly executable closure. A nil result means "keep interpreting".
// CompileOSR produces a frame-compatible compiled entry starting at a loop
// header; a nil result means the header is not OSR-able (not a
// single-header loop, or lowering bailed), and the engine records the
// failure and never re-requests it.
type Tier1Compiler interface {
	Compile(e *Engine, fidx int) CompiledFunc
	CompileOSR(e *Engine, fidx, header int) CompiledFunc
}

// CompiledFunc executes a function against a prepared frame.
type CompiledFunc func(e *Engine, fr *Frame) (Value, error)

// CallDepthLimit bounds guest recursion in every engine: a deeper call is a
// stack overflow (a LimitError here, a SIGSEGV exit on the native machine).
const CallDepthLimit = 4096

// Config configures a managed engine.
type Config struct {
	Args   []string
	Env    []string
	Stdin  io.Reader
	Stdout io.Writer

	// MaxSteps bounds interpreted instructions (0 = default of 2e9).
	MaxSteps int64
	// DetectLeaks reports unfreed heap objects after main returns (§6).
	DetectLeaks bool
	// DetectUseAfterReturn invalidates a function's stack objects when it
	// returns, so accesses through escaped pointers are reported (the
	// use-after-return/use-after-scope class ASan added after the paper's
	// original publication; the managed model gets it by marking objects).
	DetectUseAfterReturn bool
	// MaxHeapBytes bounds cumulative live guest memory (heap + stack +
	// globals). 0 = unlimited. Heap exhaustion is soft (malloc returns
	// NULL); stack/global exhaustion is hard (*ResourceError, paper has no
	// native analogue — C cannot report a failed alloca).
	MaxHeapBytes int64
	// MaxAllocBytes bounds a single heap allocation (0 = engine default of
	// 2 GiB); over-cap requests fail softly like a real malloc.
	MaxAllocBytes int64
	// FaultPlan injects deterministic allocation failures so the guest's
	// own malloc error paths are exercised. The zero plan injects nothing.
	FaultPlan fault.Plan
	// Governor, when non-nil, is the run's cooperative cancellation point:
	// the interpreter and tier-1 compiled code poll it at basic-block
	// boundaries and return its *DeadlineError when it has been stopped.
	Governor *Governor
	// Tier1 enables dynamic compilation of hot functions.
	Tier1 Tier1Compiler
	// Tier1Threshold is the hotness that triggers compilation (0 =
	// default of 50). A function's hotness is its calls plus the loop back
	// edges its tier-0 activations take. It is tested at call entry, so a
	// function compiles on the call whose count reaches the threshold, and
	// a hot loop promotes its function at the function's next call; a
	// function called once never compiles this way. Any negative value
	// acts as 1: compile on first call.
	Tier1Threshold int64
	// AsyncJIT moves tier-1 compilation off the execution thread onto a
	// bounded background pool owned by the engine: tier-0 keeps running
	// while hot functions compile, and finished code is installed at the
	// next dispatch point. Engines created with AsyncJIT must be Closed.
	AsyncJIT bool
	// OSRThreshold is the per-loop back-edge count that triggers an
	// on-stack-replacement entry compilation. OSR is on exactly when it is
	// positive and Tier1 is set.
	OSRThreshold int64
	// OnCompile is invoked when a function is tier-1 compiled (Fig. 15's
	// compilation-event annotations). Under AsyncJIT it fires at install
	// time, on the engine thread.
	OnCompile func(name string)
}

// EmptyInput is the stdin of a run configured without one: every read
// reports end of input.
type EmptyInput struct{}

func (EmptyInput) Read([]byte) (int, error) { return 0, io.EOF }

// Stats captures execution counters. The Heap* and fault fields mirror the
// fault injector's accounting and are tier-invariant: a tier-0 and a tier-1
// run of the same program report identical heap numbers (paper §5's
// "identical semantics across tiers" requirement extended to resources).
type Stats struct {
	Steps       int64
	Calls       int64
	Allocs      int64
	Frees       int64
	Tier1Funcs  int64
	Tier1Calls  int64
	InterpCalls int64
	LeaksFound  int

	// Async tiering counters. OSRCompiled counts installed OSR entries,
	// OSREntries transfers into them, AsyncInstalls background compilations
	// published at a dispatch point. All are engine-thread counters — unlike
	// Steps/Calls they are timing-dependent and excluded from tier parity.
	OSRCompiled   int64
	OSREntries    int64
	AsyncInstalls int64
	// Deopts is always 0: compiled code never transfers back to tier-0. The
	// benchmark module still reads it into its jit.deopts counter; both go
	// together at the next benchmark change.
	Deopts int64

	// Heap accounting from the fault plane (internal/fault.Stats).
	HeapAllocs     int64
	HeapAllocBytes int64
	HeapInUseBytes int64
	HeapPeakBytes  int64
	InjectedFaults int64
	DeniedAllocs   int64
}

// Engine is the managed execution engine (Safe Sulong).
type Engine struct {
	mod     *ir.Module
	cfg     Config
	globals map[string]*Object
	// globalList indexes the global objects by module global index, so
	// tier-1 closures can bake the (module-pure) index and resolve the
	// object through whichever engine executes them.
	globalList []*Object
	builtins   []Builtin // indexed by function index; nil for IR-defined funcs
	compiled   []CompiledFunc
	// counts is each function's hotness: its calls plus the back edges
	// its tier-0 activations take. invoke compares it with
	// Tier1Threshold at call entry.
	counts []int64

	stdout *bufio.Writer
	stdin  *bufio.Reader

	steps    int64
	maxSteps int64
	gov      *Governor
	depth    int
	nextID   int64

	heap    []*Object // live heap objects, for leak detection
	envObjs map[string]*Object
	stats   Stats
	mem     fault.Injector // heap budget + fault schedule, reset per run

	// Type-identity plane caches. descs memoizes allocation and checked-cast
	// descriptors (one *Desc per distinct C type, shared by every object of
	// that type); typeObjs interns the strings the _type_of builtin returns.
	// typeObjs objects live outside the heap and the fault plane (never
	// charged, never leak-checked), so introspection cannot shift a FailNth
	// schedule: they are engine metadata, not guest allocations.
	descs    memdesc.Memo
	typeObjs map[string]*Object

	// Tiering state (tierup.go). pool is the background compile pool (nil
	// in synchronous mode and after Close); queued dedups requests; tierOn
	// and osrOn cache, per run, whether a tier-1 compiler and OSR are
	// configured; the osr* maps hold per-(function, header) back-edge
	// counts and installed OSR entries.
	pool       *tierPool
	closeOnce  sync.Once
	queued     map[tierKey]bool
	tierOn     bool
	osrOn      bool
	osrEntries map[int64]CompiledFunc
	osrCounts  map[int64]int64

	// framePool is a LIFO free-list of activation records. The engine is
	// single-threaded, so no locking; frames are reset on release (registers
	// zeroed, auto/vararg references dropped) so no pointer, diagnostic
	// stack, or fault-plane state can leak from one call — or one run — into
	// the next. Bounded by the live call depth, since release is LIFO.
	// A pooled frame keeps its register file's capacity, so once the pool
	// has seen the program's call depth a call allocates no registers.
	framePool []*Frame

	// vals is the argument stack: every call site, in every tier, takes
	// its argument vector (fixed arguments, then boxed vararg cells) from
	// it before the call and gives it back after the callee returns, in
	// LIFO order. Slots past len(vals) are always zero.
	vals []Value

	// calls is the live guest call stack: one edge per active call,
	// holding the *caller's* function and the call-site line. A push or
	// pop allocates nothing; diag.Stack nodes are built only when a stack
	// is captured (a fault, malloc, alloca, free or vararg cell), and
	// memoized per depth. Both tiers push and pop at exactly the same
	// points, which is what makes tier-0 and tier-1 diagnostics
	// byte-identical.
	calls diag.Edges

	// Writer for captured output when none is configured.
	sink strings.Builder
}

// NewEngine prepares a managed engine for the module. The module is not
// mutated; globals are instantiated as managed objects.
func NewEngine(mod *ir.Module, cfg Config) (*Engine, error) {
	e := &Engine{mod: mod, stdout: bufio.NewWriter(nil), stdin: bufio.NewReader(nil)}
	e.compiled = make([]CompiledFunc, len(mod.Funcs))
	e.counts = make([]int64, len(mod.Funcs))
	if err := e.configure(cfg, e.layoutGlobals); err != nil {
		return nil, err
	}
	return e, nil
}

// configure is the per-run setup NewEngine and Reset share: it adopts cfg
// with its MaxSteps and Tier1Threshold defaults, points the engine's stdio
// buffers at cfg's streams, resets the fault injector to cfg's budget, lets
// layout charge and initialize the globals against it, and finally arms OSR
// and the background compile pool (last, so a failed layout leaves no
// workers behind).
func (e *Engine) configure(cfg Config, layout func() error) error {
	e.cfg = cfg
	e.gov = cfg.Governor
	e.maxSteps = cfg.MaxSteps
	if e.maxSteps == 0 {
		e.maxSteps = 2_000_000_000
	}
	if cfg.Tier1Threshold == 0 {
		e.cfg.Tier1Threshold = 50
	}
	e.sink.Reset()
	out := cfg.Stdout
	if out == nil {
		out = &e.sink
	}
	e.stdout.Reset(out)
	in := cfg.Stdin
	if in == nil {
		in = EmptyInput{}
	}
	e.stdin.Reset(in)

	mab := cfg.MaxAllocBytes
	if mab == 0 {
		mab = maxHeapAlloc
	}
	e.mem.Reset(cfg.FaultPlan, fault.Budget{
		MaxHeapBytes:  cfg.MaxHeapBytes,
		MaxAllocBytes: mab,
	})
	if err := layout(); err != nil {
		return err
	}

	e.tierOn = cfg.Tier1 != nil
	e.osrOn = e.tierOn && cfg.OSRThreshold > 0
	e.osrEntries, e.osrCounts = nil, nil
	if e.osrOn {
		e.osrEntries = make(map[int64]CompiledFunc)
		e.osrCounts = make(map[int64]int64)
	}
	if cfg.Tier1 != nil && cfg.AsyncJIT {
		e.startPool()
	}
	return nil
}

// layoutGlobals is a cold engine's global layout: bind the builtin table,
// then create and initialize every global object.
func (e *Engine) layoutGlobals() error {
	if err := e.bindBuiltins(); err != nil {
		return err
	}
	return e.initGlobals()
}

// Reset returns a finished engine to its just-constructed state for a new
// run of the same module under a fresh configuration, reusing the expensive
// immutable scaffolding a cold NewEngine would rebuild: the bound builtin
// table, the global objects (re-zeroed and re-initialized in module order,
// keeping their IDs 1..N so the next runtime ID — and therefore every later
// Pointer.OrderKey — matches a cold start exactly), the frame free-list,
// and the memoized type descriptors (pure functions of C type spellings,
// which consume no IDs). Everything observable is per-run and is rebuilt
// exactly as NewEngine would build it: step/depth ledgers, stats, the fault
// injector (reset in place; the global charge sequence is replayed against
// the new budget, so FailNth schedules land on the same allocations),
// tier-1 dispatch tables and hotness counts (so tier-up events, OnCompile
// callbacks and OSR behavior replay a cold run even when the compiles
// themselves are code-cache hits), the lazily-interned type-name and
// environment objects (they consume runtime IDs, so they must be re-created
// in the same order), the diagnostic call stack, the argument stack, and
// the stdio buffers (kept, and pointed at the new run's streams). A reset
// engine is observationally indistinguishable from a new one — the
// warm-vs-cold parity suite pins that byte-for-byte.
//
// On error (a global layout exceeding cfg's budget, exactly as NewEngine
// would fail) the engine is left half-reset and must be discarded.
func (e *Engine) Reset(cfg Config) error {
	// Stop any background compile pool from the previous run, then re-arm
	// the close latch for this one.
	e.Close()
	e.closeOnce = sync.Once{}

	e.steps, e.depth = 0, 0
	e.stats = Stats{}
	e.calls.Reset()
	clear(e.vals)
	e.vals = e.vals[:0]
	for i := range e.compiled {
		e.compiled[i] = nil
	}
	for i := range e.counts {
		e.counts[i] = 0
	}
	for i := range e.heap {
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.envObjs = nil
	e.typeObjs = nil
	clear(e.queued)
	return e.configure(cfg, e.replayGlobals)
}

// replayGlobals replays the cold-start global layout on a reset engine: same
// charge order, same IDs, same initializer stores. Globals hold IDs 1..N, so
// the next runtime ID picks up where a cold initGlobals would have left it. A
// module mutated since construction (legal for caller-owned NoCache modules)
// fails the shape check and the caller falls back to a cold engine.
func (e *Engine) replayGlobals() error {
	if len(e.globalList) != len(e.mod.Globals) {
		return fmt.Errorf("core: reset: module global count changed")
	}
	e.nextID = int64(len(e.mod.Globals))
	for i, g := range e.mod.Globals {
		obj := e.globalList[i]
		if obj.Name != g.Name || obj.size != g.Ty.Size() {
			return fmt.Errorf("core: reset: module global %s changed shape", g.Name)
		}
		if e.mem.ChargeFixed(g.Ty.Size()) == fault.Exhausted {
			return &ResourceError{Resource: "global", Requested: g.Ty.Size(), Limit: e.mem.Limit()}
		}
		obj.resetStatic()
	}
	for _, g := range e.mod.Globals {
		if g.Init == nil {
			continue
		}
		if err := e.fillConst(e.globals[g.Name], 0, g.Init, g.Ty); err != nil {
			return fmt.Errorf("core: initializing global %s: %w", g.Name, err)
		}
	}
	return nil
}

// Module returns the module being executed.
func (e *Engine) Module() *ir.Module { return e.mod }

// IsBuiltin reports whether the function at idx is dispatched to a native
// builtin (the tier-1 compiler must not inline those).
func (e *Engine) IsBuiltin(idx int) bool {
	return idx >= 0 && idx < len(e.builtins) && e.builtins[idx] != nil
}

// ChargeSteps is the unified fuel account: it charges n instruction steps
// against the engine's budget and polls the run governor. The tier-0
// interpreter charges one step per instruction; tier-1 compiled code calls
// this once per executed basic block with the block's instruction count, so
// Config.MaxSteps binds identically whether a hot loop is interpreted or
// compiled, and Stats.Steps stays comparable across tiers.
func (e *Engine) ChargeSteps(n int64) error {
	e.steps += n
	if e.steps > e.maxSteps {
		return &LimitError{What: fmt.Sprintf("%d interpreter steps", e.maxSteps)}
	}
	if e.gov.Stopped() {
		return e.gov.Err()
	}
	return nil
}

// RefundSteps returns n steps to the budget. Tier-1 compiled code charges a
// basic block's full cost on entry; when an instruction inside the block
// faults, the closure refunds the cost of the instructions that never ran,
// so Stats.Steps on a faulting run is byte-identical to the tier-0
// interpreter's charge-per-instruction accounting.
func (e *Engine) RefundSteps(n int64) { e.steps -= n }

// PushCall records a call edge: the caller's function and the call-site
// line. Every executor (tier-0 interpreter, tier-1 compiled closures) pushes
// before transferring control — including to builtins — and pops after, so
// the stack is identical whichever tier executes the caller. It allocates
// nothing once the edge stack has grown to the program's call depth.
func (e *Engine) PushCall(fn string, line int) { e.calls.Push(fn, line) }

// PopCall removes the innermost call edge.
func (e *Engine) PopCall() { e.calls.Pop() }

// CaptureStack returns the guest call stack with a synthesized leaf frame
// for the current location — frame #0 of a backtrace.
func (e *Engine) CaptureStack(fn string, line int) diag.Stack {
	return e.calls.StackAt(diag.Frame{Func: fn, Line: line})
}

// PushArgs takes an argument vector of n zeroed slots from the engine's
// argument stack. The caller fills it, makes the call and returns it with
// PopArgs(n) once the callee has returned. A builtin may re-enter guest
// code while it still reads its arguments; the nested calls push above
// them, so no call site's vector is ever reused while live.
func (e *Engine) PushArgs(n int) []Value {
	base := len(e.vals)
	e.vals = slices.Grow(e.vals, n)[:base+n]
	return e.vals[base : base+n : base+n]
}

// PopArgs zeroes the innermost n argument slots and returns them to the
// argument stack.
func (e *Engine) PopArgs(n int) {
	top := len(e.vals)
	clear(e.vals[top-n : top])
	e.vals = e.vals[:top-n]
}

// Located fills a BugError's location (function, line, access stack) if it
// does not carry one yet, and returns it. Shared by both execution tiers so
// reports render identically.
func (e *Engine) Located(be *BugError, fn string, line int) *BugError {
	if be.Func == "" {
		be.Func = fn
		be.Line = line
	}
	if be.AccessStack.IsEmpty() {
		be.AccessStack = e.CaptureStack(be.Func, be.Line)
	}
	return be
}

// Compiled reports whether function idx has tier-1 entry code installed.
func (e *Engine) Compiled(idx int) bool { return e.compiled[idx] != nil }

// Stats returns a snapshot of execution counters, merging in the fault
// plane's exact heap accounting.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Steps = e.steps
	ms := e.mem.Stats()
	s.HeapAllocs = ms.HeapAllocs
	s.HeapAllocBytes = ms.HeapAllocBytes
	s.HeapInUseBytes = ms.HeapInUseBytes
	s.HeapPeakBytes = ms.HeapPeakBytes
	s.InjectedFaults = ms.InjectedFaults
	s.DeniedAllocs = ms.DeniedAllocs
	return s
}

// MemStats exposes the raw fault-plane accounting (tests, the sweep).
func (e *Engine) MemStats() fault.Stats { return e.mem.Stats() }

// Output returns captured stdout when no Stdout writer was configured.
func (e *Engine) Output() string {
	e.stdout.Flush()
	return e.sink.String()
}

func (e *Engine) id() int64 {
	e.nextID++
	return e.nextID
}

func (e *Engine) bindBuiltins() error {
	e.builtins = make([]Builtin, len(e.mod.Funcs))
	for i, f := range e.mod.Funcs {
		if !f.IsDecl {
			continue
		}
		if b, ok := builtinTable[f.Name]; ok {
			e.builtins[i] = b
			continue
		}
		// Headers declare more than a program links against; an unresolved
		// external only fails if it is actually called.
		name := f.Name
		e.builtins[i] = func(e *Engine, fr *Frame, args []Value) (Value, error) {
			return Value{}, fmt.Errorf("core: call to unresolved external function %q", name)
		}
	}
	return nil
}

// initGlobals materializes module globals as managed static objects.
func (e *Engine) initGlobals() error {
	e.globals = make(map[string]*Object, len(e.mod.Globals))
	e.globalList = make([]*Object, 0, len(e.mod.Globals))
	for _, g := range e.mod.Globals {
		// Globals are charged against the run budget and never released.
		// C cannot express a failed global, so exhaustion is hard (oom).
		if e.mem.ChargeFixed(g.Ty.Size()) == fault.Exhausted {
			return &ResourceError{Resource: "global", Requested: g.Ty.Size(), Limit: e.mem.Limit()}
		}
		obj := NewObject(g.Ty.Size(), StaticMem, g.Name, e.id())
		obj.Ty = g.Ty
		if g.CType != "" {
			obj.Desc = e.descs.Decl(g.Ty, g.CType)
			if obj.Desc.HasUnions() {
				obj.Strict = true
			}
		}
		e.globals[g.Name] = obj
		e.globalList = append(e.globalList, obj)
	}
	// Second pass fills initializers (they may reference other globals).
	for _, g := range e.mod.Globals {
		if g.Init == nil {
			continue
		}
		if err := e.fillConst(e.globals[g.Name], 0, g.Init, g.Ty); err != nil {
			return fmt.Errorf("core: initializing global %s: %w", g.Name, err)
		}
	}
	return nil
}

func (e *Engine) fillConst(obj *Object, off int64, c ir.Const, ty ir.Type) error {
	switch v := c.(type) {
	case ir.ConstZero:
		return nil
	case ir.ConstIntVal:
		if be := obj.StoreInt(off, ty.Size(), v.V, Write); be != nil {
			return be
		}
	case ir.ConstFloatVal:
		bits := 64
		if ft, ok := ty.(*ir.FloatType); ok {
			bits = ft.Bits
		}
		if be := obj.StoreFloat(off, bits, v.V, Write); be != nil {
			return be
		}
	case ir.ConstBytes:
		if off+int64(len(v.Data)) > obj.Size() {
			return fmt.Errorf("byte initializer overflows object")
		}
		copy(obj.Data[off:], v.Data)
	case ir.ConstArrayVal:
		at, ok := ty.(*ir.ArrayType)
		if !ok {
			return fmt.Errorf("array constant for non-array type %s", ty)
		}
		esz := at.Elem.Size()
		for i, el := range v.Elems {
			if err := e.fillConst(obj, off+int64(i)*esz, el, at.Elem); err != nil {
				return err
			}
		}
	case ir.ConstStructVal:
		st, ok := ty.(*ir.StructType)
		if !ok {
			return fmt.Errorf("struct constant for non-struct type %s", ty)
		}
		for i, el := range v.Fields {
			if err := e.fillConst(obj, off+st.Fields[i].Offset, el, st.Fields[i].Ty); err != nil {
				return err
			}
		}
	case ir.ConstGlobalRef:
		target, ok := e.globals[v.Sym]
		if !ok {
			return fmt.Errorf("unknown global %q in initializer", v.Sym)
		}
		if be := obj.StorePtr(off, Pointer{Obj: target, Off: v.Off}, Write); be != nil {
			return be
		}
	case ir.ConstFuncRef:
		idx := e.mod.FuncIndex(v.Sym)
		if idx < 0 {
			return fmt.Errorf("unknown function %q in initializer", v.Sym)
		}
		if be := obj.StorePtr(off, FuncPointer(idx), Write); be != nil {
			return be
		}
	default:
		return fmt.Errorf("unhandled constant %T", c)
	}
	return nil
}

// Global returns the managed object backing a named global (tests and the
// harness use this to inspect state).
func (e *Engine) Global(name string) *Object { return e.globals[name] }

// GlobalAt returns the managed object backing the i'th module global. The
// tier-1 compiler bakes the index (a module-pure fact) into its closures
// and resolves the object through the executing engine at run time, so
// shared compiled code never captures one engine's global layout.
func (e *Engine) GlobalAt(i int) *Object { return e.globalList[i] }

// Run executes main() with the configured arguments and returns the exit
// code. Detected bugs come back as *BugError; normal termination (including
// exit()) reports the code with a nil error.
func (e *Engine) Run() (int, error) {
	mainIdx := e.mod.FuncIndex("main")
	if mainIdx < 0 {
		return 127, fmt.Errorf("core: program has no main function")
	}
	argvPtr := e.buildArgv()
	envpPtr := e.buildEnvp()
	mainFn := e.mod.Funcs[mainIdx]
	var args []Value
	switch len(mainFn.Sig.Params) {
	case 0:
	case 1:
		args = []Value{IntValue(int64(len(e.cfg.Args) + 1))}
	case 2:
		args = []Value{IntValue(int64(len(e.cfg.Args) + 1)), PtrValue(argvPtr)}
	default:
		args = []Value{IntValue(int64(len(e.cfg.Args) + 1)), PtrValue(argvPtr), PtrValue(envpPtr)}
	}
	ret, err := e.CallIndex(mainIdx, args)
	e.stdout.Flush()
	if err != nil {
		var ex *ExitError
		if asExit(err, &ex) {
			return ex.Code, e.maybeLeakCheck()
		}
		return -1, err
	}
	return int(int32(ret.I)), e.maybeLeakCheck()
}

func asExit(err error, out **ExitError) bool {
	for err != nil {
		if ex, ok := err.(*ExitError); ok {
			*out = ex
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// buildArgv creates the argv vector: a pointer array of length argc+1
// (terminated by NULL as C guarantees) tagged ArgvMem, so out-of-bounds
// argv accesses are reported with the paper's "main args" memory kind.
func (e *Engine) buildArgv() Pointer {
	args := append([]string{"program"}, e.cfg.Args...)
	vec := NewObject(int64(len(args)+1)*8, ArgvMem, "argv", e.id())
	for i, a := range args {
		s := NewObject(int64(len(a)+1), ArgvMem, fmt.Sprintf("argv[%d]", i), e.id())
		copy(s.Data, a)
		vec.StorePtr(int64(i)*8, Pointer{Obj: s}, Write)
	}
	return Pointer{Obj: vec}
}

func (e *Engine) buildEnvp() Pointer {
	env := e.cfg.Env
	vec := NewObject(int64(len(env)+1)*8, ArgvMem, "envp", e.id())
	for i, kv := range env {
		s := NewObject(int64(len(kv)+1), ArgvMem, "envp[]", e.id())
		copy(s.Data, kv)
		vec.StorePtr(int64(i)*8, Pointer{Obj: s}, Write)
	}
	return Pointer{Obj: vec}
}

func (e *Engine) maybeLeakCheck() error {
	if !e.cfg.DetectLeaks {
		return nil
	}
	for _, obj := range e.heap {
		if !obj.Freed {
			e.stats.LeaksFound++
		}
	}
	return nil
}

// Leaks returns the unfreed heap objects after a run (when DetectLeaks).
func (e *Engine) Leaks() []*BugError {
	var out []*BugError
	for _, obj := range e.heap {
		if !obj.Freed {
			out = append(out, &BugError{Kind: MemoryLeak, ObjSize: obj.Size(), Mem: HeapMem, Obj: obj.Name,
				AllocStack: obj.AllocStack})
		}
	}
	return out
}

// CallByName invokes a function by name (examples and tests).
func (e *Engine) CallByName(name string, args []Value) (Value, error) {
	idx := e.mod.FuncIndex(name)
	if idx < 0 {
		return Value{}, fmt.Errorf("core: no function %q", name)
	}
	return e.CallIndex(idx, args)
}

// CallIndex invokes a function by module index.
func (e *Engine) CallIndex(idx int, args []Value) (Value, error) {
	return e.invoke(idx, args, nil)
}

// AllocAuto creates a managed stack object (used by both tiers' allocas).
// fn and line name the alloca's source location; the allocation-site stack
// is captured so later out-of-bounds / use-after-return reports can print
// it. The bytes are charged against the run's heap budget (owned by fr, so
// they are released when the frame pops); exhaustion is hard — C cannot
// report a failed alloca — so the error is a *ResourceError, never NULL.
func (e *Engine) AllocAuto(fr *Frame, size int64, name string, ty ir.Type, ctype string, fn string, line int) (Pointer, error) {
	if size < 0 {
		size = 0
	}
	if e.mem.ChargeFixed(size) == fault.Exhausted {
		return Pointer{}, &ResourceError{
			Resource:  "stack",
			Requested: size,
			Limit:     e.mem.Limit(),
			Guest:     e.CaptureStack(fn, line),
		}
	}
	if fr != nil {
		fr.stackBytes += size
	}
	obj := NewObject(size, AutoMem, name, e.id())
	obj.Ty = ty
	if ctype != "" {
		obj.Desc = e.descs.Decl(ty, ctype)
		if obj.Desc.HasUnions() {
			obj.Strict = true
		}
	}
	obj.AllocStack = e.CaptureStack(fn, line)
	e.stats.Allocs++
	return Pointer{Obj: obj}, nil
}

// Invoke dispatches a call from either tier: builtins receive the caller's
// frame (for variadic introspection), IR functions get the boxed variadic
// cells.
func (e *Engine) Invoke(idx int, args, varargs []Value, caller *Frame) (Value, error) {
	if idx < 0 || idx >= len(e.mod.Funcs) {
		return Value{}, &InternalError{
			Msg:   fmt.Sprintf("call to unknown function index %d", idx),
			Guest: e.calls.Stack(),
		}
	}
	if b := e.builtins[idx]; b != nil {
		e.stats.Calls++
		return b(e, caller, args)
	}
	return e.invoke(idx, args, varargs)
}

// invoke runs a function with pre-boxed variadic cells (built by the caller,
// which knows the argument types from the call instruction).
func (e *Engine) invoke(idx int, args, varargs []Value) (Value, error) {
	f := e.mod.Funcs[idx]
	e.stats.Calls++
	if b := e.builtins[idx]; b != nil {
		return b(e, nil, args)
	}
	if e.depth >= CallDepthLimit {
		return Value{}, &LimitError{What: fmt.Sprintf("call depth %d (stack overflow in %s)", CallDepthLimit, f.Name)}
	}

	fr := e.getFrame(f)
	fr.FnIdx = idx
	fr.VarArgs = varargs
	nFixed := len(f.Sig.Params)
	for i := 0; i < nFixed && i < len(args); i++ {
		fr.Regs[i] = args[i]
	}

	e.depth++
	defer func() {
		e.depth--
		// Return this frame's alloca bytes to the budget — the managed
		// analogue of popping the stack pointer. Both tiers allocate
		// through AllocAuto, so the release point is tier-identical.
		e.mem.ReleaseFixed(fr.stackBytes)
		if e.cfg.DetectUseAfterReturn {
			for _, obj := range fr.Autos {
				obj.InvalidateReturned()
			}
		}
		e.putFrame(fr)
	}()

	// Safe publication point: background compilations finished since the
	// last dispatch become visible here, between guest instructions.
	if e.pool != nil && e.pool.pending.Load() {
		e.installReady()
	}
	// Tier-1 dispatch: compiled functions bypass the interpreter. The call
	// at which the function's hotness (its calls plus the back edges its
	// earlier activations took) reaches the threshold requests the
	// compile; in synchronous mode the compile installs inline, so that
	// very call already runs compiled.
	cf := e.compiled[idx]
	if cf == nil {
		e.counts[idx]++
		if e.tierOn && e.counts[idx] >= e.cfg.Tier1Threshold {
			e.requestCompile(tierKey{fidx: idx, header: -1})
			cf = e.compiled[idx]
		}
	}
	if cf != nil {
		e.stats.Tier1Calls++
		return cf(e, fr)
	}
	e.stats.InterpCalls++
	return e.interpret(fr)
}

// getFrame takes an activation record from the free-list (or allocates one)
// and sizes its register file for f. Pooled frames were scrubbed on release,
// so the registers a fresh activation observes are zero Values exactly as if
// newly allocated — tier-0 "fresh frame" semantics are preserved. Compiled
// code that needs more registers than f declares grows the file with
// Reserve.
func (e *Engine) getFrame(f *ir.Func) *Frame {
	need := f.NumRegs
	if n := len(e.framePool); n > 0 {
		fr := e.framePool[n-1]
		e.framePool[n-1] = nil
		e.framePool = e.framePool[:n-1]
		fr.Fn = f
		if cap(fr.Regs) >= need {
			fr.Regs = fr.Regs[:need]
		} else {
			fr.Regs = make([]Value, need)
		}
		return fr
	}
	return &Frame{Fn: f, Regs: make([]Value, need)}
}

// Reserve sizes the register file for code that uses n registers: compiled
// code adds promoted scalars and inline windows past the function's own. It
// reslices within the pooled file's capacity, so a frame grows once and
// every later activation it serves reuses the space.
// The registers past len(fr.Regs) are zero (see putFrame), so the added
// ones start zero like the rest of a fresh frame.
func (fr *Frame) Reserve(n int) {
	if n <= len(fr.Regs) {
		return
	}
	if n <= cap(fr.Regs) {
		fr.Regs = fr.Regs[:n]
		return
	}
	regs := make([]Value, n)
	copy(regs, fr.Regs)
	fr.Regs = regs
}

// putFrame scrubs a dead activation record and returns it to the free-list.
// The reset is total: register Values are zeroed (dropping any managed
// pointers, so pooled frames cannot keep dead objects — or the diagnostic
// stacks recorded on them — alive), boxed vararg cells and tracked autos are
// released, and the fault-plane byte account is cleared. A reused frame is
// observationally identical to a fresh one. Only len(fr.Regs) needs
// zeroing: a register file never shrinks while in use, so the registers
// past it were zero when the frame left the pool and still are.
func (e *Engine) putFrame(fr *Frame) {
	clear(fr.Regs)
	fr.VarArgs = nil
	for i := range fr.Autos {
		fr.Autos[i] = nil
	}
	fr.Autos = fr.Autos[:0]
	fr.Fn = nil
	fr.FnIdx = 0
	fr.stackBytes = 0
	e.framePool = append(e.framePool, fr)
}

// InlineScope snapshots the caller-frame state that an inlined call must
// restore when it returns: the fault-plane stack-byte account and the tracked
// auto objects. Tier-1 inlining runs a callee's blocks against the caller's
// frame (in a disjoint register window); Enter/LeaveInline make that
// execution observationally identical to a real activation — same call
// accounting, same depth limit and error message, same alloca release point,
// and same use-after-return invalidation.
type InlineScope struct {
	stackBytes int64
	nAutos     int
}

// EnterInline begins an inlined activation of callee against fr. It performs
// exactly the bookkeeping invoke does for a real call — Stats.Calls, then the
// depth check (in that order, so counters and stack-overflow reports match
// tier-0 byte-for-byte).
func (e *Engine) EnterInline(fr *Frame, callee string) (InlineScope, error) {
	e.stats.Calls++
	if e.depth >= CallDepthLimit {
		return InlineScope{}, &LimitError{What: fmt.Sprintf("call depth %d (stack overflow in %s)", CallDepthLimit, callee)}
	}
	e.depth++
	return InlineScope{stackBytes: fr.stackBytes, nAutos: len(fr.Autos)}, nil
}

// LeaveInline ends an inlined activation: the callee's alloca bytes go back
// to the budget and, under use-after-return detection, the callee's stack
// objects are invalidated — at the same point a real frame pop would.
// It must run on both the normal and the error path (mirroring invoke's
// deferred cleanup).
func (e *Engine) LeaveInline(fr *Frame, sc InlineScope) {
	e.depth--
	e.mem.ReleaseFixed(fr.stackBytes - sc.stackBytes)
	fr.stackBytes = sc.stackBytes
	if e.cfg.DetectUseAfterReturn {
		for _, obj := range fr.Autos[sc.nAutos:] {
			obj.InvalidateReturned()
		}
	}
	fr.Autos = fr.Autos[:sc.nAutos]
}

// TrackAuto registers a stack object with its owning frame for
// use-after-return invalidation (no-op when the option is off).
func (e *Engine) TrackAuto(fr *Frame, p Pointer) {
	if e.cfg.DetectUseAfterReturn && fr != nil && p.Obj != nil {
		fr.Autos = append(fr.Autos, p.Obj)
	}
}

// BoxVarArg boxes one variadic argument value of the given IR type into its
// own managed cell. The cell's size is the promoted argument's size, so
// reading it with a wider type is an out-of-bounds read — exactly how the
// paper detects printf("%ld", int) (Fig. 12).
func (e *Engine) BoxVarArg(ty ir.Type, v Value, idx int) Pointer {
	cell := NewObject(ty.Size(), VarargMem, varargName(idx), e.id())
	cell.Ty = ty
	// The cell's descriptor records the promoted argument's scalar class so
	// that reading the other class back (printf("%d", 3.5)) is reportable.
	// Strict keeps every cell access on the generic checked path.
	cell.Desc = e.descs.Decl(ty, ty.String())
	cell.Strict = true
	// The caller has already pushed its call edge, so the live stack names
	// the call site that supplied this argument.
	cell.AllocStack = e.calls.Stack()
	switch t := ty.(type) {
	case *ir.FloatType:
		cell.StoreFloat(0, t.Bits, v.F, Write)
	case *ir.PtrType:
		cell.StorePtr(0, v.P, Write)
	default:
		cell.StoreInt(0, ty.Size(), v.I, Write)
	}
	return Pointer{Obj: cell}
}

// varargNames holds the cell names of the first variadic arguments, so
// boxing a typical printf argument formats nothing.
var varargNames = func() (names [16]string) {
	for i := range names {
		names[i] = fmt.Sprintf("vararg %d", i+1)
	}
	return names
}()

// varargName names the cell of the idx'th (0-based) variadic argument.
func varargName(idx int) string {
	if idx < len(varargNames) {
		return varargNames[idx]
	}
	return fmt.Sprintf("vararg %d", idx+1)
}
