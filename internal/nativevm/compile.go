package nativevm

// The native machine runs each function as closures, lowered one basic
// block at a time when the block is first entered, and kept by the machine
// across Reset (its module never changes). Blocks a run never enters, such
// as error paths, are never lowered. Lowering bakes in only facts of the
// module: operand kinds, register numbers and constants, callee indices
// and function addresses, block targets and switch tables, and each load's
// and store's width and value kind. Everything Reset may change — global
// addresses, libc bindings, the tool, the type mirror, the per-instruction
// hook, the governor and the step budget — is read from the machine when
// the closure runs.
//
// The block runner keeps the order of work of executing one instruction at
// a time: for every instruction it charges one step and checks the budget,
// polls the governor on entering a block, records the source line and calls
// the per-instruction hook, in that order, before the instruction's own
// work. Steps, LimitError, cancellation points and everything a tool
// charges with AddSteps land exactly where they did.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
)

// funcCode is one function's closures.
type funcCode struct {
	fn     *ir.Func
	blocks []block
}

// block is a basic block's instructions, nil until the block is lowered.
// The last one, the terminator, sets the frame's next block (Frame.next),
// or -1 after setting its return value (Frame.ret).
type block []instr

// instr is one lowered instruction with what the runner needs before it
// runs: the source line (0 = none) and the opcode the per-instruction hook
// receives.
type instr struct {
	run  func(m *Machine, fr *Frame) error
	line int32
	op   int32
}

// code returns function idx's closures, its blocks not yet lowered on the
// function's first call.
func (m *Machine) code(idx int) *funcCode {
	c := m.funcs[idx]
	if c == nil {
		f := m.Mod.Funcs[idx]
		c = &funcCode{fn: f, blocks: make([]block, len(f.Blocks))}
		m.funcs[idx] = c
	}
	return c
}

// runBlocks executes fr's function from its entry block until it returns,
// doing the per-instruction work in the order the file comment gives.
func (m *Machine) runBlocks(fr *Frame, c *funcCode) (Value, error) {
	blk := 0
	for {
		b := c.blocks[blk]
		if b == nil {
			b = m.lowerBlock(c, blk)
		}
		for i := range b {
			in := &b[i]
			m.steps++
			if m.steps > m.maxSteps {
				return Value{}, &core.LimitError{What: fmt.Sprintf("%d native steps", m.maxSteps)}
			}
			if i == 0 && m.gov.Stopped() {
				return Value{}, m.gov.Err()
			}
			if in.line > 0 {
				m.curLine = int(in.line)
			}
			if m.perInstr != nil {
				m.perInstr(int(in.op))
			}
			if err := in.run(m, fr); err != nil {
				return Value{}, err
			}
		}
		if fr.next < 0 {
			return fr.ret, nil
		}
		blk = fr.next
	}
}

// operand is an ir.Operand with its module facts resolved: a register, a
// global (its address is the running machine's), or a constant.
type operand struct {
	reg    int32 // >= 0: a register
	global int32 // >= 0: a global's number
	val    Value
}

func (m *Machine) operand(o ir.Operand) operand {
	r := operand{reg: -1, global: -1}
	switch o.Kind {
	case ir.OperReg:
		r.reg = o.Reg
	case ir.OperConstInt:
		r.val = IntVal(o.Int)
	case ir.OperConstFloat:
		r.val = FloatVal(o.Flt())
	case ir.OperGlobal:
		r.global = int32(m.Mod.GlobalIndex(o.Sym)) // -1 (address 0) when unknown
	case ir.OperFunc:
		r.val = IntVal(int64(FuncAddr(m.Mod.FuncIndex(o.Sym))))
	}
	return r
}

func (o operand) get(m *Machine, regs []Value) Value {
	if o.reg >= 0 {
		return regs[o.reg]
	}
	if o.global >= 0 {
		return IntVal(int64(m.globals[o.global]))
	}
	return o.val
}

// lowerBlock compiles block bi of c's function to closures.
func (m *Machine) lowerBlock(c *funcCode, bi int) block {
	f, ins := c.fn, c.fn.Blocks[bi].Instrs
	b := make(block, len(ins))
	for i := range ins {
		in := &ins[i]
		b[i] = instr{line: in.Line, op: int32(in.Op)}
		if ir.IsTerminator(in.Op) {
			b[i].run = m.lowerTerm(in)
		} else {
			b[i].run = m.lowerInstr(f, bi, in)
		}
	}
	if len(ins) == 0 || !ir.IsTerminator(ins[len(ins)-1].Op) {
		b = append(b, instr{run: func(*Machine, *Frame) error {
			return fmt.Errorf("nativevm: %s: block %d has no terminator", f.Name, bi)
		}})
	}
	c.blocks[bi] = b
	return b
}

// lowerTerm compiles a block terminator.
func (m *Machine) lowerTerm(in *ir.Instr) func(*Machine, *Frame) error {
	a := m.operand(in.A)
	switch in.Op {
	case ir.OpBr:
		next := int(in.Blk0)
		return func(_ *Machine, fr *Frame) error {
			fr.next = next
			return nil
		}
	case ir.OpCondBr:
		yes, no := int(in.Blk0), int(in.Blk1)
		return func(m *Machine, fr *Frame) error {
			fr.next = no
			if a.get(m, fr.Regs).I != 0 {
				fr.next = yes
			}
			return nil
		}
	case ir.OpSwitch:
		def, cases := int(in.Blk0), in.Ext.Cases
		return func(m *Machine, fr *Frame) error {
			v := a.get(m, fr.Regs).I
			fr.next = def
			for _, c := range cases {
				if c.Val == v {
					fr.next = int(c.Blk)
					break
				}
			}
			return nil
		}
	case ir.OpRet:
		return func(m *Machine, fr *Frame) error {
			fr.ret, fr.next = a.get(m, fr.Regs), -1 // OperNone reads as Value{}
			return nil
		}
	default: // ir.OpUnreachable
		return func(*Machine, *Frame) error { return &nativeFaultErr{addr: 0} }
	}
}

// lowerInstr compiles one non-terminator of block blk of f.
func (m *Machine) lowerInstr(f *ir.Func, blk int, in *ir.Instr) func(*Machine, *Frame) error {
	dst := in.Dst
	a, b := m.operand(in.A), m.operand(in.B)
	switch in.Op {
	case ir.OpAlloca:
		return m.lowerAlloca(blk, in)

	case ir.OpLoad:
		return m.lowerLoad(in)

	case ir.OpStore:
		return m.lowerStore(in)

	case ir.OpGEP:
		p, stride := m.operand(in.Addr), in.Stride
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(p.get(m, fr.Regs).I + stride*a.get(m, fr.Regs).I)
			return nil
		}

	case ir.OpBin:
		if in.Bin.IsFloatOp() {
			return lowerFloatBin(in.Bin, bitsOf(in.Ty), dst, a, b)
		}
		return lowerIntBin(in.Bin, bitsOf(in.Ty), dst, a, b)

	case ir.OpCmp:
		return lowerCmp(in, dst, a, b)

	case ir.OpCast:
		return m.lowerCast(in, dst, a)

	case ir.OpSelect:
		c := m.operand(in.Ext.C)
		return func(m *Machine, fr *Frame) error {
			if a.get(m, fr.Regs).I != 0 {
				fr.Regs[dst] = b.get(m, fr.Regs)
			} else {
				fr.Regs[dst] = c.get(m, fr.Regs)
			}
			return nil
		}

	case ir.OpCall:
		return m.lowerCall(f, in)
	}
	op := in.Op
	return func(*Machine, *Frame) error { return fmt.Errorf("nativevm: invalid opcode %d", op) }
}

// lowerAlloca compiles a stack allocation. A constant-size alloca owns one
// slot per frame: re-executing it (a block-scoped local inside a loop)
// hands back the same address, as Clang's hoisting of such allocas to the
// entry block does, instead of growing the stack on every iteration. The
// entry block runs once per frame, so only later blocks need the memo;
// variable-length allocas carve fresh stack each time.
func (m *Machine) lowerAlloca(blk int, in *ir.Instr) func(*Machine, *Frame) error {
	dst, ty, align, ctype := in.Dst, in.Ty, in.Ty.Align(), in.CType()
	elem := ty.Size()
	count, variable := operand{reg: -1, global: -1, val: IntVal(1)}, false
	if cnt, ok := in.CountOp(); ok {
		count, variable = m.operand(cnt), cnt.Kind != ir.OperConstInt
	}
	reuse := !variable && blk != 0
	return func(m *Machine, fr *Frame) error {
		if reuse {
			if addr, ok := m.loopSlot(fr, in); ok {
				fr.Regs[dst] = IntVal(int64(addr))
				return nil
			}
		}
		size := elem * count.get(m, fr.Regs).I
		if size < 1 {
			size = 1
		}
		addr, err := m.stackAlloc(fr, size, align)
		if err != nil {
			return err
		}
		if m.trackTypes && ctype != "" {
			m.Types.Register(int64(addr), size, m.descs.Decl(ty, ctype))
		}
		if reuse {
			m.loopSlots = append(m.loopSlots, loopSlot{in: in, addr: addr})
		}
		fr.Regs[dst] = IntVal(int64(addr))
		return nil
	}
}

// lowerLoad compiles a typed load: the tool's check, then the machine's
// access, which traps on an unmapped page.
func (m *Machine) lowerLoad(in *ir.Instr) func(*Machine, *Frame) error {
	dst, p, size := in.Dst, m.operand(in.Addr), in.Ty.Size()
	if ft, ok := in.Ty.(*ir.FloatType); ok {
		f32 := ft.Bits == 32
		return func(m *Machine, fr *Frame) error {
			raw, err := m.load(uint64(p.get(m, fr.Regs).I), size)
			if err != nil {
				return err
			}
			if f32 {
				fr.Regs[dst] = FloatVal(float64(f32from(uint32(raw))))
			} else {
				fr.Regs[dst] = FloatVal(f64from(raw))
			}
			return nil
		}
	}
	sh := uint(0) // pointers load as they are; integers sign-extend
	if it, ok := in.Ty.(*ir.IntType); ok && it.Bits < 64 {
		sh = uint(64 - it.Bits)
	}
	return func(m *Machine, fr *Frame) error {
		raw, err := m.load(uint64(p.get(m, fr.Regs).I), size)
		if err != nil {
			return err
		}
		fr.Regs[dst] = IntVal(int64(raw) << sh >> sh)
		return nil
	}
}

func (m *Machine) load(addr uint64, size int64) (uint64, error) {
	if m.tool != nil {
		if rep := m.tool.Load(addr, size); rep != nil {
			return 0, rep
		}
	}
	raw, fault := m.Mem.Load(addr, size)
	if fault != nil {
		return 0, fault
	}
	return raw, nil
}

// lowerStore compiles a typed store: the tool's check, then the machine's
// access.
func (m *Machine) lowerStore(in *ir.Instr) func(*Machine, *Frame) error {
	p, v, size := m.operand(in.Addr), m.operand(in.A), in.Ty.Size()
	bits := 0 // the float width, or 0 for integers and pointers
	if ft, ok := in.Ty.(*ir.FloatType); ok {
		bits = ft.Bits
	}
	return func(m *Machine, fr *Frame) error {
		addr := uint64(p.get(m, fr.Regs).I)
		if m.tool != nil {
			if rep := m.tool.Store(addr, size); rep != nil {
				return rep
			}
		}
		val := v.get(m, fr.Regs)
		raw := uint64(val.I)
		if bits != 0 {
			raw = floatBits(val.F, bits)
		}
		if fault := m.Mem.Store(addr, size, raw); fault != nil {
			return fault
		}
		return nil
	}
}

// lowerIntBin compiles an integer binary operation at width bits. The
// common operations get their own closures; the rest share ir.EvalIntBin.
func lowerIntBin(op ir.BinOp, bits int, dst int32, a, b operand) func(*Machine, *Frame) error {
	sh := uint(64 - min(bits, 64)) // sign-extends the result from bits
	switch op {
	case ir.Add:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal((a.get(m, fr.Regs).I + b.get(m, fr.Regs).I) << sh >> sh)
			return nil
		}
	case ir.Sub:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal((a.get(m, fr.Regs).I - b.get(m, fr.Regs).I) << sh >> sh)
			return nil
		}
	case ir.Mul:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal((a.get(m, fr.Regs).I * b.get(m, fr.Regs).I) << sh >> sh)
			return nil
		}
	}
	return func(m *Machine, fr *Frame) error {
		v, ok := ir.EvalIntBin(op, bits, a.get(m, fr.Regs).I, b.get(m, fr.Regs).I)
		if !ok {
			// Division by zero traps on the machine (SIGFPE).
			return &core.ExitError{Code: 136}
		}
		fr.Regs[dst] = IntVal(v)
		return nil
	}
}

// lowerFloatBin compiles a floating binary operation at width bits.
func lowerFloatBin(op ir.BinOp, bits int, dst int32, a, b operand) func(*Machine, *Frame) error {
	if bits == 64 {
		switch op {
		case ir.FAdd:
			return func(m *Machine, fr *Frame) error {
				fr.Regs[dst] = FloatVal(a.get(m, fr.Regs).F + b.get(m, fr.Regs).F)
				return nil
			}
		case ir.FSub:
			return func(m *Machine, fr *Frame) error {
				fr.Regs[dst] = FloatVal(a.get(m, fr.Regs).F - b.get(m, fr.Regs).F)
				return nil
			}
		case ir.FMul:
			return func(m *Machine, fr *Frame) error {
				fr.Regs[dst] = FloatVal(a.get(m, fr.Regs).F * b.get(m, fr.Regs).F)
				return nil
			}
		case ir.FDiv:
			return func(m *Machine, fr *Frame) error {
				fr.Regs[dst] = FloatVal(a.get(m, fr.Regs).F / b.get(m, fr.Regs).F)
				return nil
			}
		}
	}
	return func(m *Machine, fr *Frame) error {
		fr.Regs[dst] = FloatVal(ir.EvalFloatBin(op, bits, a.get(m, fr.Regs).F, b.get(m, fr.Regs).F))
		return nil
	}
}

// lowerCmp compiles a comparison; pointers compare at 64 bits.
func lowerCmp(in *ir.Instr, dst int32, a, b operand) func(*Machine, *Frame) error {
	pred := in.Pred
	if pred.IsFloatPred() {
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(ir.EvalFloatCmp(pred, a.get(m, fr.Regs).F, b.get(m, fr.Regs).F)))
			return nil
		}
	}
	switch pred {
	case ir.Eq:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(a.get(m, fr.Regs).I == b.get(m, fr.Regs).I))
			return nil
		}
	case ir.Ne:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(a.get(m, fr.Regs).I != b.get(m, fr.Regs).I))
			return nil
		}
	case ir.Slt:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(a.get(m, fr.Regs).I < b.get(m, fr.Regs).I))
			return nil
		}
	case ir.Sle:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(a.get(m, fr.Regs).I <= b.get(m, fr.Regs).I))
			return nil
		}
	case ir.Sgt:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(a.get(m, fr.Regs).I > b.get(m, fr.Regs).I))
			return nil
		}
	case ir.Sge:
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal(boolInt(a.get(m, fr.Regs).I >= b.get(m, fr.Regs).I))
			return nil
		}
	}
	bits := 64
	if !ir.IsPtr(in.Ty) {
		bits = bitsOf(in.Ty)
	}
	return func(m *Machine, fr *Frame) error {
		fr.Regs[dst] = IntVal(boolInt(ir.EvalIntCmp(pred, bits, a.get(m, fr.Regs).I, b.get(m, fr.Regs).I)))
		return nil
	}
}

// lowerCast compiles a cast. A checked pointer cast (a bitcast with a C
// type) is never validated natively — that is the blind spot — but a fresh
// heap block adopts the target type, so introspection mirrors the managed
// engine's answer.
func (m *Machine) lowerCast(in *ir.Instr, dst int32, a operand) func(*Machine, *Frame) error {
	switch op := in.Cast; op {
	case ir.PtrToInt, ir.IntToPtr, ir.Bitcast:
		if op == ir.Bitcast && in.CType() != "" {
			return func(m *Machine, fr *Frame) error {
				v := a.get(m, fr.Regs)
				m.adoptHeapType(uint64(v.I), in)
				fr.Regs[dst] = v
				return nil
			}
		}
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = a.get(m, fr.Regs)
			return nil
		}
	case ir.SExt, ir.Trunc, ir.ZExt:
		mask, sh := int64(-1), uint(64-min(bitsOf(in.Ty2), 64))
		if from := bitsOf(in.Ty); op == ir.ZExt && from < 64 {
			mask = 1<<uint(from) - 1
		}
		return func(m *Machine, fr *Frame) error {
			fr.Regs[dst] = IntVal((a.get(m, fr.Regs).I & mask) << sh >> sh)
			return nil
		}
	default:
		from, to := bitsOf(in.Ty), bitsOf(in.Ty2)
		return func(m *Machine, fr *Frame) error {
			v := a.get(m, fr.Regs)
			i, fl, isF := ir.EvalCast(op, from, to, v.I, v.F)
			if isF {
				fr.Regs[dst] = FloatVal(fl)
			} else {
				fr.Regs[dst] = IntVal(i)
			}
			return nil
		}
	}
}

// lowerCall compiles a call: direct, libc, or indirect through a function
// address. Fixed arguments go straight into the callee's register window;
// extra arguments go into 8-byte stack slots, the variadic area. There is
// no count on the machine: reading past the last slot reads whatever the
// stack holds next.
func (m *Machine) lowerCall(f *ir.Func, in *ir.Instr) func(*Machine, *Frame) error {
	x := in.Ext
	nFixed := min(x.FixedArgs, len(x.Args))
	fixed := make([]operand, nFixed)
	for i := range fixed {
		fixed[i] = m.operand(x.Args[i])
	}
	va := make([]operand, len(x.Args)-nFixed)
	vaFloat := make([]bool, len(va))
	for i := range va {
		a := x.Args[nFixed+i]
		va[i] = m.operand(a)
		_, vaFloat[i] = a.Ty.(*ir.FloatType)
	}
	static := x.Callee.Kind == ir.OperFunc
	idx := -1
	if static {
		idx = m.Mod.FuncIndex(x.Callee.Sym)
	}
	callee, caller, line, dst := m.operand(x.Callee), f.Name, int(in.Line), in.Dst
	return func(m *Machine, fr *Frame) error {
		idx := idx
		if !static {
			addr := uint64(callee.get(m, fr.Regs).I)
			idx = FuncIndexOf(addr)
			if idx < 0 || idx >= len(m.Mod.Funcs) {
				return &nativeFaultErr{addr: addr}
			}
		}
		var vaBase uint64
		spBeforeVa := m.sp
		if len(va) > 0 {
			m.sp -= uint64(8 * len(va))
			m.sp &^= 15
			vaBase = m.sp
			for i := range va {
				v := va[i].get(m, fr.Regs)
				raw := uint64(v.I)
				if vaFloat[i] {
					raw = f64bits(v.F)
				}
				m.Mem.Store(vaBase+uint64(8*i), 8, raw)
			}
		}
		// Record the call edge on the shadow call stack before transferring
		// control — including to precompiled libc, so allocator and
		// interceptor reports can name the guest call site.
		m.PushCall(caller, line)
		ret, err := m.callOperands(fr, idx, fixed, vaBase, len(va))
		m.PopCall()
		if vaBase != 0 {
			m.sp = spBeforeVa // pop the va area
		}
		if err != nil {
			return err
		}
		if dst >= 0 {
			fr.Regs[dst] = ret
		}
		return nil
	}
}
