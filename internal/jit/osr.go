// On-stack replacement and speculative deoptimization: the frame-compatible
// flavor of the tier-1 compiler.
//
// An OSR entry is requested by the interpreter mid-activation, so the
// compiled code must execute against the *live* interpreter frame. That
// rules out every pass that reshapes the register file or the instruction
// stream (mem2reg, copy propagation, hoisting, fusion, inlining): OSR
// lowering is strictly 1:1 — lowered step i of block b executes IR
// instruction i of block b against the same registers the interpreter was
// using. What remains is still the tier-1 win: dispatch and operand decoding
// disappear, scalar memory traffic takes the core.Direct* fast paths, and
// calls keep their inline caches.
//
// The 1:1 mapping is also what makes speculation sound. A speculative site
// assumes its access stays direct — live object, no pointer slots, in
// bounds — and compiles *only* the guarded fast path; the generic fallback
// closure is gone. When the guard fails, the step returns a *core.DeoptError
// naming its exact (block, instruction): the block runner refunds the fuel
// of that instruction and everything after it (tier-0 charges before
// executing, and the guarded instruction never executed), and the
// interpreter resumes there, re-executing the access generically — which
// either handles the benign case (a pointer-carrying object, say) or raises
// the byte-identical tier-0 diagnostic if the guard caught a real memory
// error. One deopt blacklists the site (Engine.CanSpeculate), so the
// recompiled entry lowers it generically and the loop converges.
package jit

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
)

// osrBlock is a frame-compatible lowered block. All weights are 1 (no pass
// removed or fused anything), so the cost is the instruction count and
// refunds are computed from step indices instead of a weight table.
type osrBlock struct {
	body []step
	term term
	cost int64
}

// CompileOSR lowers the function at fidx frame-compatibly with entry at the
// given loop header. The header is validated against the same loop analysis
// the tier-2 hoisting pass uses (opt.Loops): a dynamically observed backward
// branch that is not a single-header loop edge is refused silently — the
// profiler counts raw backward branches, so irregular targets (a `continue`
// edge, front-end-shaped control flow) are an expected negative answer, not
// a compiler failure worth a bail-out entry. A nil result means the
// interpreter keeps the loop and the engine never re-asks.
func (c *Compiler) CompileOSR(e *core.Engine, fidx, header int) core.CompiledFunc {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := e.Module().Funcs[fidx]
	if f.IsDecl || header < 0 || header >= len(f.Blocks) {
		return nil
	}
	if !opt.IsLoopHeader(f, header) {
		return nil
	}
	// No clone, no passes: lowering only reads the (shared, immutable)
	// module function, and registers must map 1:1 to the live frame.
	c.nextReg = f.NumRegs
	c.osrMode = true
	defer func() { c.osrMode = false }()

	blocks := make([]osrBlock, len(f.Blocks))
	for bi, b := range f.Blocks {
		lb, err := c.lowerOSRBlock(e, f, fidx, bi, b)
		if err != nil {
			c.bail(f.Name, err)
			return nil
		}
		blocks[bi] = lb
	}

	entry := header
	return func(e *core.Engine, fr *core.Frame) (core.Value, error) {
		blk := entry
		for {
			b := &blocks[blk]
			if err := e.ChargeSteps(b.cost); err != nil {
				return core.Value{}, err
			}
			for i, s := range b.body {
				if err := s(e, fr); err != nil {
					if de, ok := err.(*core.DeoptError); ok {
						// The guarded instruction never executed: refund it
						// and everything after it. The interpreter re-charges
						// instruction i when it resumes there, so Stats.Steps
						// stays byte-identical across the tier change.
						e.RefundSteps(b.cost - int64(i))
						return core.Value{}, de
					}
					e.RefundSteps(b.cost - int64(i+1))
					return core.Value{}, err
				}
			}
			next, ret, done, err := b.term(e, fr)
			if err != nil {
				return core.Value{}, err
			}
			if done {
				return ret, nil
			}
			blk = next
		}
	}
}

// lowerOSRBlock lowers one block 1:1: step i executes instruction i, the
// terminator is compiled unfused, and scalar loads/stores become speculative
// deopting fast paths where the engine's blacklist allows.
func (c *Compiler) lowerOSRBlock(e *core.Engine, f *ir.Func, fidx, bi int, b *ir.Block) (osrBlock, error) {
	n := len(b.Instrs)
	body := make([]step, 0, n-1)
	for i := 0; i < n-1; i++ {
		in := &b.Instrs[i]
		if st, ok := c.specStep(e, fidx, bi, i, in); ok {
			body = append(body, st)
			continue
		}
		st, err := c.compileStep(e, f, in)
		if err != nil {
			return osrBlock{}, err
		}
		body = append(body, st)
	}
	t, err := c.compileTerm(e, f, &b.Instrs[n-1])
	if err != nil {
		return osrBlock{}, err
	}
	return osrBlock{body: body, term: t, cost: int64(n)}, nil
}

// specStep lowers a scalar register-addressed load or store as a speculative
// fast path: the core.Direct* guard (liveness, pointer purity, exact bounds)
// either passes and the access completes, or the step deopts to tier-0 at
// exactly this instruction. ok=false keeps the generic lowering (blacklisted
// site, non-scalar type, speculation disabled).
func (c *Compiler) specStep(e *core.Engine, fidx, bi, ii int, in *ir.Instr) (step, bool) {
	if in.Op != ir.OpLoad && in.Op != ir.OpStore {
		return nil, false
	}
	kind := directKind(in.Ty)
	if kind == dkNone || in.Addr.Kind != ir.OperReg || !e.CanSpeculate(fidx, bi, ii) {
		return nil, false
	}
	ar := in.Addr.Reg
	// One shared transfer descriptor per site: a deopt is a control
	// transfer, not an event, so it allocates nothing on the fast path.
	de := &core.DeoptError{Blk: bi, Instr: ii}

	if in.Op == ir.OpLoad {
		dst := in.Dst
		switch kind {
		case dkI64:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI64(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return de
			}, true
		case dkI32:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI32(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return de
			}, true
		case dkI16:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI16(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return de
			}, true
		case dkI8:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectI8(p.Off); ok {
					fr.Regs[dst] = core.IntValue(v)
					return nil
				}
				return de
			}, true
		case dkF64:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectF64(p.Off); ok {
					fr.Regs[dst] = core.FloatValue(v)
					return nil
				}
				return de
			}, true
		case dkF32:
			return func(e *core.Engine, fr *core.Frame) error {
				p := fr.Regs[ar].P
				if v, ok := p.Obj.DirectF32(p.Off); ok {
					fr.Regs[dst] = core.FloatValue(v)
					return nil
				}
				return de
			}, true
		}
		return nil, false
	}

	// Store: pre-split the value operand like compileStore does. A store
	// whose guard fails has performed no write — the interpreter re-executes
	// the whole store after the deopt, so no side effect can double.
	vr := -1
	var cvI int64
	var cvF float64
	switch in.A.Kind {
	case ir.OperReg:
		vr = in.A.Reg
	case ir.OperConstInt:
		cvI = in.A.Int
	case ir.OperConstFloat:
		cvF = in.A.Flt
	default:
		return nil, false
	}
	switch kind {
	case dkI64:
		return func(e *core.Engine, fr *core.Frame) error {
			p := fr.Regs[ar].P
			v := cvI
			if vr >= 0 {
				v = fr.Regs[vr].I
			}
			if p.Obj.DirectPutI64(p.Off, v) {
				return nil
			}
			return de
		}, true
	case dkI32:
		return func(e *core.Engine, fr *core.Frame) error {
			p := fr.Regs[ar].P
			v := cvI
			if vr >= 0 {
				v = fr.Regs[vr].I
			}
			if p.Obj.DirectPutI32(p.Off, v) {
				return nil
			}
			return de
		}, true
	case dkI16:
		return func(e *core.Engine, fr *core.Frame) error {
			p := fr.Regs[ar].P
			v := cvI
			if vr >= 0 {
				v = fr.Regs[vr].I
			}
			if p.Obj.DirectPutI16(p.Off, v) {
				return nil
			}
			return de
		}, true
	case dkI8:
		return func(e *core.Engine, fr *core.Frame) error {
			p := fr.Regs[ar].P
			v := cvI
			if vr >= 0 {
				v = fr.Regs[vr].I
			}
			if p.Obj.DirectPutI8(p.Off, v) {
				return nil
			}
			return de
		}, true
	case dkF64:
		return func(e *core.Engine, fr *core.Frame) error {
			p := fr.Regs[ar].P
			v := cvF
			if vr >= 0 {
				v = fr.Regs[vr].F
			}
			if p.Obj.DirectPutF64(p.Off, v) {
				return nil
			}
			return de
		}, true
	case dkF32:
		return func(e *core.Engine, fr *core.Frame) error {
			p := fr.Regs[ar].P
			v := cvF
			if vr >= 0 {
				v = fr.Regs[vr].F
			}
			if p.Obj.DirectPutF32(p.Off, v) {
				return nil
			}
			return de
		}, true
	}
	return nil, false
}
