// Call lowering for tier-1: pre-resolved direct calls with argument-buffer
// reuse, safety-preserving leaf-function inlining, and monomorphic →
// polymorphic inline caches for function-pointer calls (paper §3.2: "we use
// inline caches to make function pointer calls efficient").
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

// icCapacity bounds the polymorphic inline cache before a call site goes
// megamorphic and falls back to generic dispatch. Entries are core.ICEntry
// values in the engine's per-site table: key is Pointer.Fn (function index
// + 1, never 0), idx the validated module function index.
const icCapacity = 4

// compileCall lowers a call instruction. Direct calls to small leaf
// functions are inlined; other direct calls pre-resolve the callee and —
// when the target is an IR function taking no varargs — reuse a persistent
// argument buffer (the engine copies arguments into the callee frame before
// any guest code runs, so the buffer is dead by the time anything could
// re-enter this site; builtins are excluded because they hold their args
// slice while calling back into guest code). Indirect calls go through an
// inline cache.
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
	nFixed := x.FixedArgs
	if nFixed > len(x.Args) {
		nFixed = len(x.Args)
	}
	varTypes := make([]ir.Type, 0, len(x.Args)-nFixed)
	for i := nFixed; i < len(x.Args); i++ {
		varTypes = append(varTypes, x.Args[i].Ty)
	}
	dst := in.Dst
	line := int(in.Line)

	invoke := func(e *core.Engine, fr *core.Frame, idx int, args []core.Value) error {
		for i := 0; i < nFixed; i++ {
			args[i] = getters[i](e, fr)
		}
		// The call edge is pushed before variadic boxing and before builtin
		// dispatch, mirroring the tier-0 interpreter's execCall ordering
		// exactly: boxed cells record this call site as their allocation
		// stack, and faults inside builtins capture the caller.
		e.PushCall(fname, line)
		defer e.PopCall()
		var cells []core.Pointer
		if len(varTypes) > 0 {
			cells = make([]core.Pointer, len(varTypes))
			for i := range varTypes {
				cells[i] = e.BoxVarArg(varTypes[i], getters[nFixed+i](e, fr), i)
			}
		}
		ret, err := e.Invoke(idx, args, cells, fr)
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
		callee := e.Module().Funcs[idx]
		if len(varTypes) == 0 && !callee.IsDecl && !e.IsBuiltin(idx) {
			// Persistent argument buffer, held in the *engine's* call-site
			// table rather than captured here: the closure may be shared by
			// the code cache across many engines, so its only state is the
			// compile-time site ID. Engines are single-threaded and consume
			// args before transferring control, so one buffer per site per
			// engine is safe even under recursion through this site.
			site := c.siteID()
			return func(e *core.Engine, fr *core.Frame) error {
				return invoke(e, fr, idx, e.Site(site).ArgBuf(nFixed))
			}, nil
		}
		return func(e *core.Engine, fr *core.Frame) error {
			return invoke(e, fr, idx, make([]core.Value, nFixed))
		}, nil
	}

	getCallee, err := c.compileOperand(e, x.Callee)
	if err != nil {
		return nil, err
	}

	// Inline cache. The guards run in the interpreter's order: a non-function
	// pointer reports exactly the tier-0 diagnostic (NULL call, call through
	// data pointer, unknown index) before any cache logic touches it. Cache
	// state lives in the *engine's* per-site table, keyed by a compile-time
	// site ID: the closure itself is immutable, so the code cache can share
	// it across engines, and a pooled engine restarts with a cold cache. An
	// engine is single-threaded; the site pointer is re-fetched on every
	// execution and never held across invoke (the table may grow while guest
	// code runs, invalidating old pointers).
	site := c.siteID()
	return func(e *core.Engine, fr *core.Frame) error {
		p := getCallee(e, fr).P
		if p.Fn != 0 { // IsFunc
			s := e.Site(site)
			if !s.Mega {
				for i := range s.IC {
					if s.IC[i].Key == p.Fn {
						if i != 0 {
							// Move-to-front: a mostly-monomorphic site hits on
							// the first compare.
							s.IC[0], s.IC[i] = s.IC[i], s.IC[0]
						}
						return invoke(e, fr, s.IC[0].Idx, make([]core.Value, nFixed))
					}
				}
			}
			// The bound is the running module's, read at run time: code
			// shared across the modules extending one libc prefix calls
			// back into each program's own functions (qsort, bsearch).
			idx := p.FuncIndex()
			if idx < 0 || idx >= len(e.Module().Funcs) {
				return &core.InternalError{
					Msg:   fmt.Sprintf("call to unknown function in %s", fname),
					Guest: e.CaptureStack(fname, line),
				}
			}
			if !s.Mega {
				if len(s.IC) < icCapacity {
					s.IC = append(s.IC, core.ICEntry{Key: p.Fn, Idx: idx})
				} else {
					s.Mega = true // give up: generic dispatch from here on
					s.IC = nil
				}
			}
			return invoke(e, fr, idx, make([]core.Value, nFixed))
		}
		if p.Obj == nil { // IsNull
			return e.Located(&core.BugError{Kind: core.NullDeref, Access: core.CallAccess}, fname, line)
		}
		return e.Located(&core.BugError{
			Kind: core.TypeViolation, Access: core.CallAccess, Mem: p.Obj.Mem, Obj: p.Obj.Name,
		}, fname, line)
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
