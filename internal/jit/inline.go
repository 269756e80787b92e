// Call lowering for tier-1: pre-resolved direct calls, safety-preserving
// leaf-function inlining, and function-pointer calls that decode the
// callee's index from the pointer. The paper's inline caches (§3.2) let
// Graal inline an indirect call's target; closures cannot be inlined, and a
// function pointer already names its callee, so there is no cache here.
//
// Inlining contract: an inlined callee executes against the caller's frame
// in a private register window, but remains a *call* for every observable
// purpose — the call edge is pushed so backtraces are byte-identical to
// tier-0, the depth limit and stats.Calls fire exactly as the interpreter's
// invoke would, per-callee alloca bytes are released (and use-after-return
// invalidation runs) when the inline scope exits, and each callee block
// charges its weight-accounted fuel.
package jit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
)

// compileCall lowers a call instruction. Direct calls to small leaf
// functions are inlined; other direct calls pre-resolve the callee.
// Indirect calls resolve the callee from the pointer. Every call takes its
// argument vector from the engine's argument stack, as tier-0 does.
func (c *Compiler) compileCall(e *core.Engine, in *ir.Instr, fname string) (step, error) {
	x := in.Ext
	if x.Callee.Kind == ir.OperFunc {
		if st, ok := c.tryInline(e, in, fname); ok {
			return st, nil
		}
	}

	getters := make([]getter, len(x.Args))
	for i, a := range x.Args {
		g, err := c.compileOperand(e, a)
		if err != nil {
			return nil, err
		}
		getters[i] = g
	}
	nArgs := len(x.Args)
	nFixed := min(x.FixedArgs, nArgs)
	varTypes := make([]ir.Type, 0, nArgs-nFixed)
	for i := nFixed; i < nArgs; i++ {
		varTypes = append(varTypes, x.Args[i].Ty)
	}
	dst := in.Dst
	line := int(in.Line)

	invoke := func(e *core.Engine, fr *core.Frame, idx int) error {
		v := e.PushArgs(nArgs)
		for i := 0; i < nFixed; i++ {
			v[i] = getters[i](e, fr)
		}
		// The call edge is pushed before variadic boxing and before builtin
		// dispatch, mirroring the tier-0 interpreter's execCall ordering
		// exactly: boxed cells record this call site as their allocation
		// stack, and faults inside builtins capture the caller.
		e.PushCall(fname, line)
		for i, ty := range varTypes {
			v[nFixed+i] = core.PtrValue(e.BoxVarArg(ty, getters[nFixed+i](e, fr), i))
		}
		ret, err := e.Invoke(idx, v[:nFixed:nFixed], v[nFixed:], fr)
		e.PopCall()
		e.PopArgs(nArgs)
		if err != nil {
			return err
		}
		if dst >= 0 {
			fr.Regs[dst] = ret
		}
		return nil
	}

	if x.Callee.Kind == ir.OperFunc {
		idx := e.Module().FuncIndex(x.Callee.Sym)
		if idx < 0 {
			return nil, fmt.Errorf("jit: unknown callee %s", x.Callee.Sym)
		}
		return func(e *core.Engine, fr *core.Frame) error {
			return invoke(e, fr, idx)
		}, nil
	}

	getCallee, err := c.compileOperand(e, x.Callee)
	if err != nil {
		return nil, err
	}

	// The guards run in the interpreter's order — NULL, data pointer,
	// unknown index — each reporting exactly the tier-0 diagnostic.
	return func(e *core.Engine, fr *core.Frame) error {
		p := getCallee(e, fr).P
		if p.IsNull() {
			return e.Located(&core.BugError{Kind: core.NullDeref, Access: core.CallAccess}, fname, line)
		}
		if !p.IsFunc() {
			return e.Located(&core.BugError{
				Kind: core.TypeViolation, Access: core.CallAccess, Mem: p.Obj.Mem, Obj: p.Obj.Name,
			}, fname, line)
		}
		// The bound is the running module's, read at run time: code shared
		// across the modules extending one libc prefix calls back into each
		// program's own functions (qsort, bsearch).
		idx := p.FuncIndex()
		if idx < 0 || idx >= len(e.Module().Funcs) {
			return &core.InternalError{
				Msg:   fmt.Sprintf("call to unknown function in %s", fname),
				Guest: e.CaptureStack(fname, line),
			}
		}
		return invoke(e, fr, idx)
	}, nil
}

// isLeaf reports whether f contains no call instructions.
func isLeaf(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				return false
			}
		}
	}
	return true
}

// remapRegs shifts every register reference in f by base, relocating the
// callee into a private window of the caller's frame.
func remapRegs(f *ir.Func, base int32) {
	mo := func(o *ir.Operand) {
		if o.Kind == ir.OperReg {
			o.Reg += base
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst >= 0 {
				in.Dst += base
			}
			in.Operands(mo)
		}
	}
}

// tryInline compiles a direct call to a small leaf function as an embedded
// block loop over the caller's frame. Budget: callees of at most
// inlineMaxInstrs instructions, at most inlineMaxTotal inlined instructions
// per caller. Failure is never a compilation bail — the site falls back to
// the generic call closure.
func (c *Compiler) tryInline(e *core.Engine, in *ir.Instr, callerName string) (step, bool) {
	if c.plain {
		// Inline windows grow the register file past the interpreter
		// frame's, so no plain lowering (an OSR entry among them) inlines.
		return nil, false
	}
	x := in.Ext
	idx := e.Module().FuncIndex(x.Callee.Sym)
	if idx < 0 || e.IsBuiltin(idx) {
		return nil, false
	}
	callee := e.Module().Funcs[idx]
	if callee.IsDecl || callee.Sig.Variadic || len(callee.Blocks) == 0 {
		return nil, false
	}
	// Only plain call shapes: every argument fixed and matching the
	// signature (C's lax arity mismatches keep the generic path, which
	// reproduces the interpreter's copy-min semantics).
	if x.FixedArgs != len(x.Args) || len(x.Args) != len(callee.Sig.Params) {
		return nil, false
	}
	n := callee.InstrCount()
	if n > inlineMaxInstrs || c.inlinedInstr+n > inlineMaxTotal || !isLeaf(callee) {
		return nil, false
	}

	// Clone and optimize the callee exactly like a toplevel compilation, then
	// relocate it into a fresh register window.
	cf := callee.Clone()
	cw := optimize(cf)
	base := c.nextReg
	c.nextReg = base + cf.NumRegs
	remapRegs(cf, int32(base))
	blocks, _, err := c.lowerFunc(e, cf, cw)
	if err != nil {
		return nil, false // unlowerable callee: generic call instead
	}
	c.inlinedInstr += n
	c.inlinedSites++

	argGetters := make([]getter, len(x.Args))
	for i, a := range x.Args {
		g, gerr := c.compileOperand(e, a)
		if gerr != nil {
			return nil, false
		}
		argGetters[i] = g
	}
	nRegs := cf.NumRegs
	calleeName := callee.Name
	dst := in.Dst
	line := int(in.Line)

	return func(e *core.Engine, fr *core.Frame) error {
		// Fresh-frame semantics inside the window: the callee's registers
		// start zero on every activation, exactly like a new Frame.
		win := fr.Regs[base : base+nRegs]
		for i := range win {
			win[i] = core.Value{}
		}
		for i, g := range argGetters {
			fr.Regs[base+i] = g(e, fr)
		}
		e.PushCall(callerName, line)
		sc, err := e.EnterInline(fr, calleeName)
		if err != nil {
			e.PopCall()
			return err
		}
		ret, err := runBlocks(e, fr, blocks, 0)
		e.LeaveInline(fr, sc)
		e.PopCall()
		if err != nil {
			return err
		}
		if dst >= 0 {
			fr.Regs[dst] = ret
		}
		return nil
	}, true
}
