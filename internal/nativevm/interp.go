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
	return m.callFrom(nil, idx, args, vaBase, vaCount)
}

// callFrom is Call with the calling IR frame attached, so library functions
// that model compiler builtins (__ss_count_varargs) can inspect the
// caller's variadic area.
func (m *Machine) callFrom(caller *Frame, idx int, args []Value, vaBase uint64, vaCount int) (Value, error) {
	f := m.Mod.Funcs[idx]
	if f.IsDecl {
		lf, ok := m.libc[f.Name]
		if !ok {
			return Value{}, fmt.Errorf("nativevm: call to unresolved external %q", f.Name)
		}
		// Library code runs with inLib set: tool reports raised inside it
		// (interceptors, the replacement allocator) use the call edge on the
		// shadow stack as their innermost frame. Saved and restored because
		// libc can call back into guest code (qsort comparators).
		prevLib := m.inLib
		m.inLib = true
		ret, err := lf(m, &CallCtx{Args: args, VaBase: vaBase, VaCount: vaCount, Frame: caller})
		m.inLib = prevLib
		return ret, err
	}
	if m.depth >= core.CallDepthLimit {
		// Native recursion exhaustion is a stack overflow: the simulated
		// machine traps when sp leaves the mapped stack; model it directly.
		return Value{}, &core.ExitError{Code: 139}
	}
	fr := &Frame{Fn: f, Regs: make([]Value, f.NumRegs), VaBase: vaBase, VaCount: vaCount, savedSP: m.sp, slotBase: len(m.loopSlots)}
	for i := 0; i < len(f.Sig.Params) && i < len(args); i++ {
		fr.Regs[i] = args[i]
	}
	m.depth++
	ret, err := m.exec(fr)
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

// exec runs one frame to completion.
func (m *Machine) exec(fr *Frame) (Value, error) {
	f := fr.Fn
	// Shadow location tracking: record which guest function/line is
	// executing so tool reports can synthesize their innermost frame. The
	// previous values are restored on return (nested exec via calls).
	prevFn, prevLine, prevLib := m.curFn, m.curLine, m.inLib
	m.curFn, m.inLib = f.Name, false
	defer func() {
		m.curFn, m.curLine, m.inLib = prevFn, prevLine, prevLib
	}()
	blk, ii := 0, 0
	for {
		m.steps++
		if m.steps > m.maxSteps {
			return Value{}, &core.LimitError{What: fmt.Sprintf("%d native steps", m.maxSteps)}
		}
		if ii == 0 && m.gov.Stopped() {
			// Cancellation point: polled once per basic block entered.
			return Value{}, m.gov.Err()
		}
		in := &f.Blocks[blk].Instrs[ii]
		if in.Line > 0 {
			m.curLine = int(in.Line)
		}
		if m.perInstr != nil {
			m.perInstr(int(in.Op))
		}
		switch in.Op {
		case ir.OpAlloca:
			count, variable := int64(1), false
			if cnt, ok := in.CountOp(); ok {
				count = m.oper(fr, cnt).I
				variable = cnt.Kind != ir.OperConstInt
			}
			// A constant-size alloca owns one slot per frame: re-executing it
			// (a block-scoped local inside a loop) hands back the same
			// address, as Clang's hoisting of such allocas to the entry block
			// does, instead of growing the stack on every iteration. The entry
			// block runs once per frame, so only later blocks need the memo;
			// variable-length allocas carve fresh stack each time.
			reuse := !variable && blk != 0
			if reuse {
				if addr, ok := m.loopSlot(fr, in); ok {
					fr.Regs[in.Dst] = IntVal(int64(addr))
					break
				}
			}
			size := in.Ty.Size() * count
			if size < 1 {
				size = 1
			}
			addr, err := m.stackAlloc(fr, size, in.Ty.Align())
			if err != nil {
				return Value{}, err
			}
			if ct := in.CType(); m.trackTypes && ct != "" {
				m.Types.Register(int64(addr), size, m.descs.Decl(in.Ty, ct))
			}
			if reuse {
				m.loopSlots = append(m.loopSlots, loopSlot{in: in, addr: addr})
			}
			fr.Regs[in.Dst] = IntVal(int64(addr))

		case ir.OpLoad:
			addr := uint64(m.oper(fr, in.Addr).I)
			v, err := m.LoadMem(addr, in.Ty)
			if err != nil {
				return Value{}, err
			}
			fr.Regs[in.Dst] = v

		case ir.OpStore:
			addr := uint64(m.oper(fr, in.Addr).I)
			if err := m.StoreMem(addr, in.Ty, m.oper(fr, in.A)); err != nil {
				return Value{}, err
			}

		case ir.OpGEP:
			base := m.oper(fr, in.Addr).I
			idx := m.oper(fr, in.A).I
			fr.Regs[in.Dst] = IntVal(base + in.Stride*idx)

		case ir.OpBin:
			a, b := m.oper(fr, in.A), m.oper(fr, in.B)
			if in.Bin.IsFloatOp() {
				bits := 64
				if ft, ok := in.Ty.(*ir.FloatType); ok {
					bits = ft.Bits
				}
				fr.Regs[in.Dst] = FloatVal(ir.EvalFloatBin(in.Bin, bits, a.F, b.F))
			} else {
				v, ok := ir.EvalIntBin(in.Bin, bitsOf(in.Ty), a.I, b.I)
				if !ok {
					// Division by zero traps on the machine (SIGFPE).
					return Value{}, &core.ExitError{Code: 136}
				}
				fr.Regs[in.Dst] = IntVal(v)
			}

		case ir.OpCmp:
			a, b := m.oper(fr, in.A), m.oper(fr, in.B)
			var r bool
			switch {
			case in.Pred.IsFloatPred():
				r = ir.EvalFloatCmp(in.Pred, a.F, b.F)
			case ir.IsPtr(in.Ty):
				r = ir.EvalIntCmp(in.Pred, 64, a.I, b.I)
			default:
				r = ir.EvalIntCmp(in.Pred, bitsOf(in.Ty), a.I, b.I)
			}
			fr.Regs[in.Dst] = IntVal(boolInt(r))

		case ir.OpCast:
			a := m.oper(fr, in.A)
			switch in.Cast {
			case ir.PtrToInt, ir.IntToPtr, ir.Bitcast:
				if in.Cast == ir.Bitcast && in.CType() != "" {
					// Checked cast site: native execution never validates it
					// (that is the blind spot), but a fresh heap block adopts
					// the target type so introspection mirrors the managed
					// engine's answer.
					m.adoptHeapType(uint64(a.I), in)
				}
				fr.Regs[in.Dst] = a
			default:
				i, fl, isF := ir.EvalCast(in.Cast, bitsOf(in.Ty), bitsOf(in.Ty2), a.I, a.F)
				if isF {
					fr.Regs[in.Dst] = FloatVal(fl)
				} else {
					fr.Regs[in.Dst] = IntVal(i)
				}
			}

		case ir.OpSelect:
			if m.oper(fr, in.A).I != 0 {
				fr.Regs[in.Dst] = m.oper(fr, in.B)
			} else {
				fr.Regs[in.Dst] = m.oper(fr, in.Ext.C)
			}

		case ir.OpCall:
			ret, err := m.execCall(fr, in)
			if err != nil {
				return Value{}, err
			}
			if in.Dst >= 0 {
				fr.Regs[in.Dst] = ret
			}

		case ir.OpBr:
			blk, ii = int(in.Blk0), 0
			continue
		case ir.OpCondBr:
			if m.oper(fr, in.A).I != 0 {
				blk = int(in.Blk0)
			} else {
				blk = int(in.Blk1)
			}
			ii = 0
			continue
		case ir.OpSwitch:
			v := m.oper(fr, in.A).I
			blk = int(in.Blk0)
			for _, c := range in.Ext.Cases {
				if c.Val == v {
					blk = int(c.Blk)
					break
				}
			}
			ii = 0
			continue
		case ir.OpRet:
			if in.A.Kind == ir.OperNone {
				return Value{}, nil
			}
			return m.oper(fr, in.A), nil
		case ir.OpUnreachable:
			return Value{}, &nativeFaultErr{addr: 0}
		default:
			return Value{}, fmt.Errorf("nativevm: invalid opcode %d", in.Op)
		}
		ii++
	}
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

// execCall resolves a call instruction: direct, libc, or indirect.
func (m *Machine) execCall(fr *Frame, in *ir.Instr) (Value, error) {
	x := in.Ext
	var idx int
	switch x.Callee.Kind {
	case ir.OperFunc:
		idx = m.Mod.FuncIndex(x.Callee.Sym)
	default:
		addr := uint64(m.oper(fr, x.Callee).I)
		idx = FuncIndexOf(addr)
		if idx < 0 || idx >= len(m.Mod.Funcs) {
			return Value{}, &nativeFaultErr{addr: addr}
		}
	}
	nFixed := x.FixedArgs
	if nFixed > len(x.Args) {
		nFixed = len(x.Args)
	}
	args := make([]Value, 0, nFixed)
	for i := 0; i < nFixed; i++ {
		args = append(args, m.oper(fr, x.Args[i]))
	}
	// Variadic area: extra arguments go into 8-byte stack slots. There is
	// no count on the machine; reading past the last slot reads whatever
	// the stack holds next.
	var vaBase uint64
	spBeforeVa := m.sp
	vaCount := len(x.Args) - nFixed
	if vaCount > 0 {
		m.sp -= uint64(8 * vaCount)
		m.sp &^= 15
		vaBase = m.sp
		for i := 0; i < vaCount; i++ {
			a := x.Args[nFixed+i]
			v := m.oper(fr, a)
			var raw uint64
			if _, isFloat := a.Ty.(*ir.FloatType); isFloat {
				raw = f64bits(v.F)
			} else {
				raw = uint64(v.I)
			}
			m.Mem.Store(vaBase+uint64(8*i), 8, raw)
		}
	} else {
		vaCount = 0
	}
	// Record the call edge on the shadow call stack before transferring
	// control — including to precompiled libc, so allocator and interceptor
	// reports can name the guest call site.
	m.PushCall(fr.Fn.Name, int(in.Line))
	ret, err := m.callFrom(fr, idx, args, vaBase, vaCount)
	m.PopCall()
	if vaBase != 0 {
		m.sp = spBeforeVa // pop the va area
	}
	return ret, err
}

// LoadMem performs a typed load with tool checking and machine faulting.
func (m *Machine) LoadMem(addr uint64, ty ir.Type) (Value, error) {
	size := ty.Size()
	if m.tool != nil {
		if rep := m.tool.Load(addr, size); rep != nil {
			return Value{}, rep
		}
	}
	raw, fault := m.Mem.Load(addr, size)
	if fault != nil {
		return Value{}, fault
	}
	switch t := ty.(type) {
	case *ir.FloatType:
		if t.Bits == 32 {
			return FloatVal(float64(f32from(uint32(raw)))), nil
		}
		return FloatVal(f64from(raw)), nil
	case *ir.IntType:
		return IntVal(ir.SignExtend(int64(raw), t.Bits)), nil
	default: // pointer
		return IntVal(int64(raw)), nil
	}
}

// StoreMem performs a typed store with tool checking and machine faulting.
func (m *Machine) StoreMem(addr uint64, ty ir.Type, v Value) error {
	size := ty.Size()
	if m.tool != nil {
		if rep := m.tool.Store(addr, size); rep != nil {
			return rep
		}
	}
	var raw uint64
	switch t := ty.(type) {
	case *ir.FloatType:
		raw = floatBits(v.F, t.Bits)
	default:
		raw = uint64(v.I)
	}
	if fault := m.Mem.Store(addr, size, raw); fault != nil {
		return fault
	}
	return nil
}

func (m *Machine) oper(fr *Frame, o ir.Operand) Value {
	switch o.Kind {
	case ir.OperReg:
		return fr.Regs[o.Reg]
	case ir.OperConstInt:
		return IntVal(o.Int)
	case ir.OperConstFloat:
		return FloatVal(o.Flt())
	case ir.OperGlobal:
		return IntVal(int64(m.globalAddr[o.Sym]))
	case ir.OperFunc:
		return IntVal(int64(FuncAddr(m.Mod.FuncIndex(o.Sym))))
	case ir.OperNull:
		return IntVal(0)
	}
	return Value{}
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
