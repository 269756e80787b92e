package nativevm

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
)

func f32bits(f float32) uint32 { return math.Float32bits(f) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
func f32from(b uint32) float32 { return math.Float32frombits(b) }
func f64from(b uint64) float64 { return math.Float64frombits(b) }

// Call invokes function idx. vaBase/vaCount describe a variadic area the
// caller already wrote to the stack (0 for none).
func (m *Machine) Call(idx int, args []Value, vaBase uint64, vaCount int) (Value, error) {
	f := m.Mod.Funcs[idx]
	if f.IsDecl {
		return m.callLib(nil, idx, args, vaBase, vaCount)
	}
	fr, err := m.enter(f, vaBase, vaCount)
	if err != nil {
		return Value{}, err
	}
	copy(fr.Regs, args[:min(len(f.Sig.Params), len(args))])
	return m.runFrame(idx, fr)
}

// callOperands is Call from a compiled call site in caller: the fixed
// arguments are read from caller's registers straight into the callee's
// window (for libc, into a window of their own), so a call allocates
// nothing.
func (m *Machine) callOperands(caller *Frame, idx int, fixed []operand, vaBase uint64, vaCount int) (Value, error) {
	f := m.Mod.Funcs[idx]
	if f.IsDecl {
		top := m.regTop
		args := m.window(len(fixed))
		for i := range fixed {
			args[i] = fixed[i].get(m, caller.Regs)
		}
		ret, err := m.callLib(caller, idx, args, vaBase, vaCount)
		m.regTop = top
		return ret, err
	}
	fr, err := m.enter(f, vaBase, vaCount)
	if err != nil {
		return Value{}, err
	}
	for i := range min(len(f.Sig.Params), len(fixed)) {
		fr.Regs[i] = fixed[i].get(m, caller.Regs)
	}
	return m.runFrame(idx, fr)
}

// callLib calls the precompiled library function bound to the declaration
// at idx. caller is the calling IR frame (nil from Call), so library
// functions that model compiler builtins (__ss_count_varargs) can inspect
// its variadic area.
func (m *Machine) callLib(caller *Frame, idx int, args []Value, vaBase uint64, vaCount int) (Value, error) {
	lf := m.libcFuncs[idx]
	if lf == nil {
		return Value{}, fmt.Errorf("nativevm: call to unresolved external %q", m.Mod.Funcs[idx].Name)
	}
	ctx := new(CallCtx)
	if caller != nil {
		ctx = &caller.ctx // a frame makes one library call at a time
	}
	*ctx = CallCtx{Args: args, VaBase: vaBase, VaCount: vaCount, Frame: caller}
	// Library code runs with inLib set: tool reports raised inside it
	// (interceptors, the replacement allocator) use the call edge on the
	// shadow stack as their innermost frame. Saved and restored because
	// libc can call back into guest code (qsort comparators).
	prevLib := m.inLib
	m.inLib = true
	ret, err := lf(m, ctx)
	m.inLib = prevLib
	return ret, err
}

// window carves n zeroed registers off the machine's register stack.
// Windows are released by resetting regTop; one that outgrows the stack
// starts a new, larger one, and the windows below stay where they are.
func (m *Machine) window(n int) []Value {
	top := m.regTop
	if top+n > len(m.regs) {
		m.regs = make([]Value, max(2*len(m.regs), top+n, 64))
	}
	w := m.regs[top : top+n : top+n]
	clear(w)
	m.regTop = top + n
	return w
}

// enter pushes a frame for a call to f: a register window and the frame
// record, both reused across calls.
func (m *Machine) enter(f *ir.Func, vaBase uint64, vaCount int) (*Frame, error) {
	if m.depth >= core.CallDepthLimit {
		// Native recursion exhaustion is a stack overflow: the simulated
		// machine traps when sp leaves the mapped stack; model it directly.
		return nil, &core.ExitError{Code: 139}
	}
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, new(Frame))
	}
	fr := m.frames[m.depth]
	m.depth++
	regBase := m.regTop
	*fr = Frame{Fn: f, Regs: m.window(f.NumRegs), VaBase: vaBase, VaCount: vaCount,
		savedSP: m.sp, slotBase: len(m.loopSlots), regBase: regBase}
	return fr, nil
}

// runFrame runs the entered frame fr of function idx to completion and pops
// it.
func (m *Machine) runFrame(idx int, fr *Frame) (Value, error) {
	// Shadow location tracking: record which guest function/line is
	// executing so tool reports can synthesize their innermost frame. The
	// previous values are restored on return.
	prevFn, prevLine, prevLib := m.curFn, m.curLine, m.inLib
	m.curFn, m.inLib = fr.Fn.Name, false
	ret, err := m.runBlocks(fr, m.code(idx))
	m.curFn, m.curLine, m.inLib = prevFn, prevLine, prevLib
	m.depth--
	// Epilogue: release the frame's stack range.
	if m.tool != nil && m.sp < fr.savedSP {
		m.tool.StackFree(m.sp, fr.savedSP)
	}
	if m.trackTypes && m.sp < fr.savedSP {
		// Retire the frame's stack type registrations: an address range
		// reused by a later frame must not inherit this frame's types.
		m.Types.RemoveRange(int64(m.sp), int64(fr.savedSP))
	}
	m.sp = fr.savedSP
	m.loopSlots = m.loopSlots[:fr.slotBase]
	m.inj.ReleaseFixed(fr.stackBytes) // return alloca bytes to the budget
	m.regTop = fr.regBase
	return ret, err
}

// CallAddr invokes a function through a simulated text address (function
// pointers, qsort comparators).
func (m *Machine) CallAddr(addr uint64, args []Value) (Value, error) {
	idx := FuncIndexOf(addr)
	if idx < 0 || idx >= len(m.Mod.Funcs) {
		return Value{}, &nativeFaultErr{addr: addr}
	}
	return m.Call(idx, args, 0, 0)
}

type nativeFaultErr struct{ addr uint64 }

func (e *nativeFaultErr) Error() string {
	return fmt.Sprintf("segmentation fault: jump to invalid address 0x%x", e.addr)
}

// loopSlot returns the slot the running frame fr already carved for the
// alloca in, if any. A frame holds few such slots, so a scan beats a map.
func (m *Machine) loopSlot(fr *Frame, in *ir.Instr) (uint64, bool) {
	for _, s := range m.loopSlots[fr.slotBase:] {
		if s.in == in {
			return s.addr, true
		}
	}
	return 0, false
}

// stackAlloc carves a stack object, with optional tool redzones around it.
// The object's bytes are charged against the run budget (released in the
// call epilogue); exhaustion is hard — the machine cannot express a failed
// alloca as a value — so it surfaces a *core.ResourceError ("oom").
func (m *Machine) stackAlloc(fr *Frame, size, align int64) (uint64, error) {
	rz := uint64(m.stackRedzone)
	m.sp -= rz // redzone above the object
	m.sp -= uint64(size)
	if align < 16 {
		align = 16
	}
	m.sp &^= uint64(align - 1)
	addr := m.sp
	m.sp -= rz // redzone below
	if m.sp < m.stackLow {
		return 0, &nativeFaultErr{addr: m.sp} // stack overflow
	}
	if m.inj.ChargeFixed(size) == fault.Exhausted {
		return 0, &core.ResourceError{
			Resource:  "stack",
			Requested: size,
			Limit:     m.inj.Limit(),
			Guest:     m.CaptureStack(),
		}
	}
	if fr != nil {
		fr.stackBytes += size
	}
	if m.tool != nil {
		m.tool.StackAlloc(addr, size)
	}
	return addr, nil
}

func bitsOf(t ir.Type) int {
	switch v := t.(type) {
	case *ir.IntType:
		return v.Bits
	case *ir.FloatType:
		return v.Bits
	}
	return 64
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
