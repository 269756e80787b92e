// Package nativevm executes SIR on a simulated native machine: flat memory
// (internal/nativemem), a downward-growing stack, a reusing heap allocator,
// and a "precompiled" libc implemented in Go (internal/nlibc). It models the
// execution environment that ASan-instrumented binaries and Valgrind-hosted
// binaries actually run in, including every blind spot the paper exploits:
// adjacent objects, silent intra-page corruption, heap reuse after free, a
// kernel-initialized argv/envp block, and an uninstrumented libc.
package nativevm

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/memdesc"
	"repro/internal/nativemem"
)

// maxKeptRegs bounds the register stack a machine keeps across Reset.
const maxKeptRegs = 1 << 16

// Address-space layout (lower 47 bits, AMD64-style).
const (
	GlobalBase = uint64(0x0000_0000_0001_0000)
	HeapBase   = uint64(0x0000_0000_1000_0000)
	StackTop   = uint64(0x0000_0000_7fff_0000)
	StackSize  = uint64(8 << 20) // 8 MiB, one span; pages back on first write
	// ArgvBase is just above the stack: the kernel-initialized block
	// holding argv pointers, envp pointers, and their strings. No tool
	// instruments it (paper case study 1).
	ArgvBase = StackTop + nativemem.PageSize

	// FuncBase is the fictitious text segment: function i has address
	// FuncBase + 16*i.
	FuncBase = uint64(0x0000_4000_0000_0000)

	// TypeStrBase is the region holding the NUL-terminated strings the
	// _type_of introspection builtin returns. It sits outside every guest-
	// reachable segment and is populated by interning (one deterministic
	// address per distinct type name, in first-use order) — never via the
	// gated heap allocator, so calling _type_of cannot shift a FailNth
	// fault-schedule coordinate.
	TypeStrBase = uint64(0x0000_3000_0000_0000)
	typeStrSize = uint64(64 << 10)
)

// Value is a native scalar: an integer/address or a float.
type Value struct {
	I int64
	F float64
}

// IntVal and FloatVal build Values.
func IntVal(v int64) Value     { return Value{I: v} }
func FloatVal(v float64) Value { return Value{F: v} }

// Frame is a native activation record.
type Frame struct {
	Fn      *ir.Func
	Regs    []Value
	VaBase  uint64 // start of this call's variadic area (0 if none)
	VaCount int
	savedSP uint64
	// stackBytes is the charged size of this frame's allocas; returned to
	// the fault injector's budget in the call epilogue (sp restore).
	stackBytes int64
	// slotBase is where this frame's entries start in Machine.loopSlots.
	slotBase int
	// regBase is where Regs starts on the machine's register stack.
	regBase int
	// ctx is the CallCtx of the library call this frame is making.
	ctx CallCtx
	// next is the block the running block's terminator chose, or -1 when
	// it returned ret.
	next int
	ret  Value
}

// loopSlot is the address a constant-size alloca outside its function's
// entry block carved on first execution in the live frame.
type loopSlot struct {
	in   *ir.Instr
	addr uint64
}

// CallCtx is what a libc function receives: fixed args plus the variadic
// area, which it reads directly from memory (real varargs have no count;
// nlibc's printf walks the format string, exactly like the real one).
type CallCtx struct {
	Args    []Value
	VaBase  uint64
	VaCount int
	Frame   *Frame // the *calling* IR frame, for __ss_* compatibility shims
}

// LibFunc is a native library function implemented in Go ("precompiled").
type LibFunc func(m *Machine, call *CallCtx) (Value, error)

// Checker observes and vets memory traffic; ASan and memcheck implement it.
type Checker interface {
	// Load/Store return a report when the access violates the tool's model.
	Load(addr uint64, size int64) *core.BugError
	Store(addr uint64, size int64) *core.BugError
	// StackAlloc/StackFree/GlobalAlloc let tools poison redzones.
	StackAlloc(addr uint64, size int64)
	StackFree(lo, hi uint64)
	GlobalAlloc(addr uint64, size int64)
}

// Tool is a dynamic analysis the machine runs under (ASan, memcheck): one
// object answers what the tool sees — the accesses it vets, its heap, its
// redzones, and whether libc's own code is instrumented. A nil Tool means
// raw native execution. A Tool serves one machine.
type Tool interface {
	Checker
	// Attach binds the tool to a new machine and returns the heap
	// allocator it runs over m.Mem. The tool may keep m: it charges its
	// data-proportional shadow work with m.AddSteps, puts m.CaptureStack
	// backtraces on its reports, and may install a per-instruction hook
	// with m.SetPerInstr.
	Attach(m *Machine) Allocator
	// Redzones is the poisoned padding the machine leaves around each
	// stack object and after each global; 0 packs objects adjacently
	// (native reality).
	Redzones() (stack, global int64)
	// SeesLibc reports whether libc's own accesses go through the tool's
	// checker. Binary translation (memcheck) instruments everything;
	// compile-time instrumentation (ASan) never sees the prebuilt libc and
	// relies on interceptors instead.
	SeesLibc() bool
}

// Allocator is the heap implementation. ASan substitutes a redzone +
// quarantine allocator; memcheck wraps the default one with bookkeeping.
type Allocator interface {
	Malloc(size int64) uint64
	Free(addr uint64) error
	SizeOf(addr uint64) (int64, bool)
}

// Config configures a native machine.
type Config struct {
	// Tool is the analysis the machine runs under; nil runs bare native.
	Tool Tool
	// Libc binds external function names to native implementations. The
	// machine only reads it, so one map may serve many machines at once. A
	// machine binds its module's declarations to a table once, and a Reset
	// with the same table keeps the binding: a table must not change after
	// a machine first used it.
	Libc map[string]LibFunc

	Args     []string
	Env      []string
	Stdin    io.Reader
	Stdout   io.Writer
	MaxSteps int64
	// MaxHeapBytes / MaxAllocBytes / FaultPlan mirror the managed engine's
	// resource budget (core.Config): every guest heap allocation — whichever
	// allocator the tool installed — is charged through one fault.Injector
	// gate wrapped around Machine.Alloc, so budgets and fault schedules bind
	// identically across all four engines. 0 = unlimited / no plan.
	MaxHeapBytes  int64
	MaxAllocBytes int64
	FaultPlan     fault.Plan
	// Governor, when non-nil, is the run's cooperative cancellation point:
	// the machine polls it at basic-block boundaries and libc fast paths
	// charge fuel against the same budget (execution governor).
	Governor *core.Governor
	// Hardened makes the nlibc bulk-write family (memcpy/memset/strcpy/...)
	// consult the machine's object bookkeeping and truncate at the
	// destination's end instead of overflowing. It turns the type-identity
	// mirror on, so the clamping has the same source of truth as the
	// introspection builtins.
	Hardened bool
}

// Machine is a native execution engine instance.
type Machine struct {
	Mem   *nativemem.Memory
	Mod   *ir.Module
	Alloc Allocator

	cfg  Config
	tool Tool
	libc map[string]LibFunc
	// libcChecker is tool when it sees libc's own accesses, else nil.
	libcChecker Checker
	// stackRedzone/globalRedzone are the tool's padding (0 without one).
	stackRedzone  int64
	globalRedzone int64

	// globals holds each module global's address, by global number.
	globals []uint64
	// libcFuncs binds each declared function, by function index, to its
	// implementation in libc (nil: unresolved).
	libcFuncs []LibFunc
	// funcs holds each function's closures, by function index, lowered
	// block by block as blocks are first entered (compile.go). They depend
	// only on Mod, so they are kept across Reset.
	funcs []*funcCode
	// frames and regs are the live frames' records and register windows,
	// reused from call to call; regTop is the first free register.
	frames   []*Frame
	regs     []Value
	regTop   int
	perInstr func(op int)
	sp       uint64
	stackLow uint64
	inj      fault.Injector // heap budget + fault schedule, reset per run
	// own is the bare-native heap (unused under a tool); gate is the
	// budget gate Alloc points at. Both are kept across Reset.
	own  FreeListAlloc
	gate gatedAlloc
	// loopSlots holds the live frames' re-executable alloca slots. Calls
	// nest LIFO, so the running frame owns loopSlots[fr.slotBase:] and the
	// call epilogue truncates back to it.
	loopSlots []loopSlot

	Stdout *bufio.Writer
	Stdin  *bufio.Reader
	sink   strings.Builder

	steps    int64
	maxSteps int64
	gov      *core.Governor
	depth    int

	// libc-private state (strtok pointer, rand seed, ungetc pushback).
	StrtokSave uint64
	RandState  uint64
	Ungot      int

	envpAddr uint64

	// Type-identity mirror (typeident.go): Types maps address ranges of
	// stack objects, globals, and cast-adopted heap blocks to the same
	// memdesc descriptors the managed engine hangs off core.Object, so the
	// introspection builtins and the hardened nlibc share one source of
	// truth with the managed family. Populated only when trackTypes is on
	// (the mirror is pure observation — native execution never checks it).
	Types      memdesc.Table
	trackTypes bool
	// introspects is moduleWantsIntrospection(Mod), a fact of the module,
	// worked out once in New.
	introspects bool
	hardened    bool
	descs       memdesc.Memo
	typeStrs    map[string]uint64
	typeStrCur  uint64

	// Shadow call stack: the machine analogue of a debugger unwinding the
	// real stack. edges holds one entry per live call edge (caller
	// function + call-site line) and builds diag.Stack nodes only when a
	// report or allocation site captures it; curFn/curLine track the
	// instruction being executed; inLib marks execution inside a
	// precompiled library function, where the call edge already names the
	// faulting site. Tools (ASan, memcheck) read it through CaptureStack to
	// put backtraces on reports.
	edges   diag.Edges
	curFn   string
	curLine int
	inLib   bool
}

// EnvpAddr returns the address of the kernel-initialized envp array
// (0 before Run builds the argument block).
func (m *Machine) EnvpAddr() uint64 { return m.envpAddr }

// New builds a machine and lays out globals, stack, and the argv block:
// empty buffers, then Reset.
func New(mod *ir.Module, cfg Config) (*Machine, error) {
	m := &Machine{
		Mem:         nativemem.New(),
		Mod:         mod,
		funcs:       make([]*funcCode, len(mod.Funcs)),
		globals:     make([]uint64, len(mod.Globals)),
		libcFuncs:   make([]LibFunc, len(mod.Funcs)),
		Stdout:      bufio.NewWriter(nil),
		Stdin:       bufio.NewReader(nil),
		introspects: moduleWantsIntrospection(mod),
	}
	m.gate.charged = map[uint64]int64{}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns m to the state New(m.Mod, cfg) builds, for another run. It
// keeps the machine's buffers — memory pages, the stdio buffers, the fault
// injector, the allocator maps, the loop-slot, frame and register stacks —
// the functions it has lowered and, when cfg.Libc is the table it is bound
// to, its libc binding. It rebuilds everything else: the injector's budget
// and schedule, the stack span, the globals, the type mirror and libc's
// private state. What it clears costs what the last run touched: the
// memory pages and shadow pages that run wrote, not every page the machine
// holds. cfg.Tool is attached afresh; a tool resets its own per-run state
// in Attach, so passing the machine's previous tool reuses its shadow
// buffers too. A failed Reset leaves m unusable.
func (m *Machine) Reset(cfg Config) error {
	m.Mem.Reset()
	m.cfg = cfg
	m.tool = cfg.Tool
	if reflect.ValueOf(cfg.Libc).UnsafePointer() != reflect.ValueOf(m.libc).UnsafePointer() {
		m.bindLibc(cfg.Libc)
	}
	m.libcChecker = nil
	m.stackRedzone, m.globalRedzone = 0, 0
	clear(m.globals)
	m.perInstr = nil
	m.loopSlots = m.loopSlots[:0]
	if len(m.regs) > maxKeptRegs {
		m.regs, m.frames = nil, nil // a deep recursion's stacks are not kept
	}
	m.regTop = 0
	m.steps, m.depth = 0, 0
	m.maxSteps = cfg.MaxSteps
	if m.maxSteps == 0 {
		m.maxSteps = 2_000_000_000
	}
	m.gov = cfg.Governor
	m.StrtokSave, m.RandState, m.Ungot = 0, 1, -2
	m.envpAddr = 0
	m.Types = memdesc.Table{}
	m.descs = memdesc.Memo{}
	m.typeStrs, m.typeStrCur = nil, 0
	m.edges.Reset()
	m.curFn, m.curLine, m.inLib = "", 0, false

	m.sink.Reset()
	out := cfg.Stdout
	if out == nil {
		out = &m.sink
	}
	m.Stdout.Reset(out)
	in := cfg.Stdin
	if in == nil {
		in = core.EmptyInput{}
	}
	m.Stdin.Reset(in)

	m.inj.Reset(cfg.FaultPlan, fault.Budget{
		MaxHeapBytes:  cfg.MaxHeapBytes,
		MaxAllocBytes: cfg.MaxAllocBytes,
	})
	var inner Allocator
	if m.tool != nil {
		inner = m.tool.Attach(m)
		m.stackRedzone, m.globalRedzone = m.tool.Redzones()
		if m.tool.SeesLibc() {
			m.libcChecker = m.tool
		}
	} else {
		m.own.Reset(m.Mem)
		inner = &m.own
	}
	// One gate in front of whichever allocator the tool installed: budgets
	// and fault schedules apply before redzones/quarantine ever see the
	// request, so all four engines observe identical allocation outcomes.
	m.gate.inner, m.gate.inj = inner, &m.inj
	clear(m.gate.charged)
	m.Alloc = &m.gate

	// Stack.
	m.Mem.Map(StackTop-StackSize, StackSize)
	m.sp = StackTop
	m.stackLow = StackTop - StackSize

	m.hardened = cfg.Hardened
	m.trackTypes = cfg.Hardened || m.introspects

	return m.layoutGlobals()
}

// bindLibc binds each declared function of the module to its entry in libc.
func (m *Machine) bindLibc(libc map[string]LibFunc) {
	m.libc = libc
	for i, f := range m.Mod.Funcs {
		m.libcFuncs[i] = nil
		if f.IsDecl {
			m.libcFuncs[i] = libc[f.Name]
		}
	}
}

// Tool returns the attached tool (nil for raw native). Code shared by every
// machine, such as ASan's libc interceptors, finds its run's tool here.
func (m *Machine) Tool() Tool { return m.tool }

// Libc returns the machine's libc binding (Config.Libc).
func (m *Machine) Libc() map[string]LibFunc { return m.libc }

// LibcChecker returns the checker libc's own accesses go through: the tool
// when it sees libc (Tool.SeesLibc), else nil.
func (m *Machine) LibcChecker() Checker { return m.libcChecker }

// SetPerInstr installs a hook that runs before every executed
// instruction. Binary-translation tools (memcheck) install one in Attach to
// charge the shadow bookkeeping they perform on all operations, not only
// memory ones.
func (m *Machine) SetPerInstr(f func(op int)) { m.perInstr = f }

// PushCall records a call edge (caller function + call-site line) on the
// shadow call stack. O(1), and it allocates nothing once the edge stack has
// grown to the program's call depth.
func (m *Machine) PushCall(fn string, line int) { m.edges.Push(fn, line) }

// PopCall removes the innermost call edge.
func (m *Machine) PopCall() { m.edges.Pop() }

// CaptureStack returns the guest backtrace at the current instruction:
// the shadow call stack plus a synthesized leaf frame for the instruction
// being executed. Inside a precompiled library function the top call edge
// already names the faulting call site, so no leaf is added — reports from
// libc interceptors blame the guest call, exactly like real ASan output.
func (m *Machine) CaptureStack() diag.Stack {
	if m.inLib || m.curFn == "" {
		return m.edges.Stack()
	}
	return m.edges.StackAt(diag.Frame{Func: m.curFn, Line: m.curLine})
}

// Output returns captured stdout when no writer was configured.
func (m *Machine) Output() string {
	m.Stdout.Flush()
	return m.sink.String()
}

// Steps reports executed instruction count.
func (m *Machine) Steps() int64 { return m.steps }

// MemStats exposes the fault plane's exact heap accounting for this run.
func (m *Machine) MemStats() fault.Stats { return m.inj.Stats() }

// AddSteps charges n steps of fuel without an inline budget check; the
// exhaustion is observed at the next instruction boundary. Tools use it for
// data-proportional shadow work (their interfaces have no error path), so
// instrumented bulk operations cannot escape MaxSteps. A non-positive n
// charges nothing.
func (m *Machine) AddSteps(n int64) {
	if n > 0 {
		m.steps += n
	}
}

// ChargeSteps charges n steps of fuel against the machine's budget and
// polls the run governor. Libc fast paths that loop over guest memory
// (strlen, memcpy, the scanf character pump) call it so a bulk operation
// driven by a corrupted size consumes budget like interpreted code would.
func (m *Machine) ChargeSteps(n int64) error {
	m.steps += n
	if m.steps > m.maxSteps {
		return &core.LimitError{What: fmt.Sprintf("%d native steps", m.maxSteps)}
	}
	if m.gov.Stopped() {
		return m.gov.Err()
	}
	return nil
}

// layoutGlobals packs module globals into the data segment, in declaration
// order, with only natural alignment between them (adjacent objects!), plus
// the configured redzone when a tool asks for one.
func (m *Machine) layoutGlobals() error {
	addr := GlobalBase
	for gi, g := range m.Mod.Globals {
		align := uint64(g.Ty.Align())
		if align < 1 {
			align = 1
		}
		addr = (addr + align - 1) / align * align
		size := g.Ty.Size()
		if size == 0 {
			size = 1
		}
		// Globals are charged against the run budget before they are mapped:
		// a huge global must not take down the host. C cannot report a
		// failed global, so exhaustion is hard (classified "oom").
		if m.inj.ChargeFixed(size) == fault.Exhausted {
			return &core.ResourceError{Resource: "global", Requested: size, Limit: m.inj.Limit()}
		}
		m.Mem.Map(addr, uint64(size))
		m.globals[gi] = addr
		if m.tool != nil {
			m.tool.GlobalAlloc(addr, size)
		}
		if m.trackTypes && g.CType != "" {
			m.Types.Register(int64(addr), size, m.descs.Decl(g.Ty, g.CType))
		}
		if g.Init != nil {
			if err := m.fillConst(addr, g.Init, g.Ty); err != nil {
				return fmt.Errorf("nativevm: initializing %s: %w", g.Name, err)
			}
		}
		addr += uint64(size)
		if m.globalRedzone > 0 {
			m.Mem.Map(addr, uint64(m.globalRedzone))
			addr += uint64(m.globalRedzone)
		}
	}
	return nil
}

func (m *Machine) fillConst(addr uint64, c ir.Const, ty ir.Type) error {
	switch v := c.(type) {
	case ir.ConstZero:
		return nil
	case ir.ConstIntVal:
		m.Mem.Store(addr, ty.Size(), uint64(v.V))
	case ir.ConstFloatVal:
		bits := 64
		if ft, ok := ty.(*ir.FloatType); ok {
			bits = ft.Bits
		}
		m.Mem.Store(addr, int64(bits/8), uint64(floatBits(v.V, bits)))
	case ir.ConstBytes:
		m.Mem.WriteBytes(addr, v.Data)
	case ir.ConstArrayVal:
		at := ty.(*ir.ArrayType)
		esz := at.Elem.Size()
		for i, el := range v.Elems {
			if err := m.fillConst(addr+uint64(int64(i)*esz), el, at.Elem); err != nil {
				return err
			}
		}
	case ir.ConstStructVal:
		st := ty.(*ir.StructType)
		for i, el := range v.Fields {
			if err := m.fillConst(addr+uint64(st.Fields[i].Offset), el, st.Fields[i].Ty); err != nil {
				return err
			}
		}
	case ir.ConstGlobalRef:
		target := m.GlobalAddr(v.Sym) // 0 until laid out
		if target == 0 {
			return fmt.Errorf("forward global ref %q not yet laid out", v.Sym)
		}
		m.Mem.Store(addr, 8, target+uint64(v.Off))
	case ir.ConstFuncRef:
		idx := m.Mod.FuncIndex(v.Sym)
		if idx < 0 {
			return fmt.Errorf("unknown function %q", v.Sym)
		}
		m.Mem.Store(addr, 8, FuncAddr(idx))
	default:
		return fmt.Errorf("unhandled constant %T", c)
	}
	return nil
}

// FuncAddr returns the simulated text address of function idx.
func FuncAddr(idx int) uint64 { return FuncBase + uint64(idx)*16 }

// FuncIndexOf inverts FuncAddr; returns -1 for non-text addresses.
func FuncIndexOf(addr uint64) int {
	if addr < FuncBase || (addr-FuncBase)%16 != 0 {
		return -1
	}
	return int((addr - FuncBase) / 16)
}

// GlobalAddr returns the data-segment address of a named global (0 for
// none).
func (m *Machine) GlobalAddr(name string) uint64 {
	if i := m.Mod.GlobalIndex(name); i >= 0 {
		return m.globals[i]
	}
	return 0
}

// buildArgvBlock lays out the kernel argument block exactly as execve does:
// argv pointer array, NULL, envp pointer array, NULL, then the strings.
// Reading argv[i] past argc walks into envp — the paper's information leak.
func (m *Machine) buildArgvBlock() (argvAddr, envpAddr uint64, argc int64) {
	args := append([]string{"program"}, m.cfg.Args...)
	env := m.cfg.Env
	total := uint64(8*(len(args)+1+len(env)+1)) + 4096
	m.Mem.Map(ArgvBase, total)

	argvAddr = ArgvBase
	envpAddr = ArgvBase + uint64(8*(len(args)+1))
	strBase := envpAddr + uint64(8*(len(env)+1))
	cur := strBase
	writeStr := func(s string) uint64 {
		at := cur
		m.Mem.WriteBytes(cur, append([]byte(s), 0))
		cur += uint64(len(s) + 1)
		return at
	}
	for i, a := range args {
		m.Mem.Store(argvAddr+uint64(8*i), 8, writeStr(a))
	}
	m.Mem.Store(argvAddr+uint64(8*len(args)), 8, 0)
	for i, kv := range env {
		m.Mem.Store(envpAddr+uint64(8*i), 8, writeStr(kv))
	}
	m.Mem.Store(envpAddr+uint64(8*len(env)), 8, 0)
	m.envpAddr = envpAddr
	return argvAddr, envpAddr, int64(len(args))
}

// Run executes main() and returns the exit code. A *core.BugError is a tool
// report; a *nativemem.Fault is a machine trap (crash).
func (m *Machine) Run() (int, error) {
	mainIdx := m.Mod.FuncIndex("main")
	if mainIdx < 0 {
		return 127, fmt.Errorf("nativevm: program has no main function")
	}
	argvAddr, envpAddr, argc := m.buildArgvBlock()
	mainFn := m.Mod.Funcs[mainIdx]
	var args []Value
	switch len(mainFn.Sig.Params) {
	case 0:
	case 1:
		args = []Value{IntVal(argc)}
	case 2:
		args = []Value{IntVal(argc), IntVal(int64(argvAddr))}
	default:
		args = []Value{IntVal(argc), IntVal(int64(argvAddr)), IntVal(int64(envpAddr))}
	}
	ret, err := m.Call(mainIdx, args, 0, 0)
	m.Stdout.Flush()
	if err != nil {
		if ex, ok := err.(*core.ExitError); ok {
			return ex.Code, nil
		}
		return -1, err
	}
	return int(int32(ret.I)), nil
}

func floatBits(f float64, bits int) uint64 {
	if bits == 32 {
		return uint64(f32bits(float32(f)))
	}
	return f64bits(f)
}
