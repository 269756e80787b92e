// Package jit is Safe Sulong's tier-1 dynamic compiler — the Graal analogue.
// When the engine reports a function hot, the compiler clones its IR,
// applies *safety-preserving* optimizations (scalar promotion of
// non-escaping locals, constant folding, copy propagation, address CSE —
// never dead-store or dead-load elimination, which would erase bugs), and
// lowers each basic block to a flat slice of specialized Go closures with
// pre-resolved operands. The tier-2 peak-performance layer adds
// leaf-function inlining, gep+access superinstructions and cmp+condbr
// terminator fusion. The result checks every access at its own site and
// keeps every bounds/NULL/free check observable — this is the paper's
// "optimizes based on safe semantics [and] cannot optimize away invalid
// accesses" property (§4.2) — while eliminating the tier-0 interpreter's
// dispatch and operand-decoding overhead.
//
// Fuel contract: every basic block charges its weight-accounted cost on
// entry and refunds the unexecuted remainder when an instruction faults, so
// Stats.Steps is byte-identical to tier 0 on clean *and* faulting runs.
package jit

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
)

// Inlining budgets: only leaf functions (no calls, no varargs) up to
// inlineMaxInstrs instructions are inlined, and at most inlineMaxTotal
// instructions of callee code may be inlined into one caller.
const (
	inlineMaxInstrs = 40
	inlineMaxTotal  = 256
	maxBailReasons  = 16
)

// Compiler implements core.Tier1Compiler. Compilation
// may run on the engine's background compile pool while the engine thread
// executes tier-0 code, so every compile entry point and every counter
// access is serialized by mu — the *compiled closures* it produces still
// execute single-threaded on the engine thread.
type Compiler struct {
	// DisableMem2Reg turns off scalar promotion and every later pass
	// (ablation benchmarks: the tier-0-shaped closure compiler).
	DisableMem2Reg bool

	// Cache, when set, makes Compile and CompileOSR consult the process-wide
	// executable-code cache before lowering: a hit attaches the shared
	// immutable code and replays the compile's recorded counter deltas, so
	// JITReport is byte-identical whether the code was compiled here or
	// reused. Set it before the first Compile and never change it.
	Cache *CodeCache

	// mu serializes compilations (the engine may run them on background
	// workers) and guards stats against concurrent Snapshot reads.
	mu    sync.Mutex
	stats Stats

	// per-Compile state
	nextReg      int // first free register (inline windows grow this)
	inlinedInstr int // callee instructions inlined so far
	inlinedSites int // call sites inlined by this compilation (meta delta)
	// plain lowers 1:1 — no passes, no fusion, no inlining, every weight 1:
	// entry compiles under DisableMem2Reg, and every OSR entry (whose code
	// runs on the live interpreter frame).
	plain bool
}

// Stats is a snapshot of the compiler's counters.
type Stats struct {
	// Compiled counts tier-1 compiled functions; InstrsTotal their size
	// (both committed only when a compilation succeeds, so a bail-out never
	// skews the totals).
	Compiled    int
	InstrsTotal int
	// Bailed counts compilations abandoned back to the interpreter, and
	// BailReasons records why (capped; "func: reason"). A silent bail-out
	// shows up in benchmarks only as slow numbers — these counters make it
	// visible in sulong -json and the benchmark's per-layer report.
	Bailed      int
	BailReasons []string
	// Inlined counts call sites expanded by the tier-2 inliner.
	Inlined int
}

// Snapshot returns the counters under the compile lock, so it is safe to
// take while background compilations are in flight.
func (c *Compiler) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BailReasons = append([]string(nil), s.BailReasons...)
	return s
}

// New returns a tier-1 compiler.
func New() *Compiler { return &Compiler{} }

// bail abandons the current compilation, recording why.
func (c *Compiler) bail(fn string, err error) {
	c.stats.bail(fmt.Sprintf("%s: %v", fn, err))
}

// bail counts one abandoned compilation and keeps its reason, up to the cap.
func (s *Stats) bail(reason string) {
	s.Bailed++
	if len(s.BailReasons) < maxBailReasons {
		s.BailReasons = append(s.BailReasons, reason)
	}
}

// step executes one non-terminator instruction.
type step func(e *core.Engine, fr *core.Frame) error

// term executes a block terminator: returns the next block, or done=true
// with the return value.
type term func(e *core.Engine, fr *core.Frame) (next int, ret core.Value, done bool, err error)

type block struct {
	body []step
	term term
	// cost is the fuel charged when the block executes: the weight-account
	// sum of its instructions (weights fold when tier-2 passes remove or
	// fuse instructions, so the cost equals what the tier-0 interpreter
	// would charge). Charging per block instead of per closure keeps
	// compiled code cheap while making Config.MaxSteps binding in tier 1.
	cost int64
	// refund[i] is the fuel handed back when body[i] returns an error: the
	// summed weights of the instructions after i that never ran. This keeps
	// Stats.Steps on a faulting run byte-identical to tier-0's
	// charge-per-instruction accounting even with tier-2 restructuring.
	refund []int64
}

// unitMeta is the counter delta one compilation produces, recorded alongside
// the closure in the code cache so a cache hit replays exactly the JITReport
// a cold compile would have produced (including bails and inlined sites).
type unitMeta struct {
	instrs  int
	inlined int
	bailed  bool
	bailMsg string
}

// apply commits one compilation's counter delta. Callers hold c.mu.
func (c *Compiler) apply(m unitMeta) {
	c.stats.Inlined += m.inlined
	if m.bailed {
		c.stats.bail(m.bailMsg)
		return
	}
	c.stats.Compiled++
	c.stats.InstrsTotal += m.instrs
}

// Compile lowers the function at fidx to closures. A nil result means the
// function stays in the interpreter (and is counted in Bailed). With a
// Cache attached, the compile is served from (or populates) the shared
// executable-code cache.
func (c *Compiler) Compile(e *core.Engine, fidx int) core.CompiledFunc {
	if c.Cache != nil {
		return c.Cache.compile(c, e, fidx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fn, meta := c.compileFn(e, fidx)
	c.apply(meta)
	return fn
}

// compileFn performs one tier-1 compilation and returns the closure plus its
// counter delta, without touching the counters. Callers hold c.mu.
func (c *Compiler) compileFn(e *core.Engine, fidx int) (core.CompiledFunc, unitMeta) {
	f := e.Module().Funcs[fidx]
	c.plain = c.DisableMem2Reg
	w := opt.NewWeights(f)
	if !c.plain {
		// The passes rewrite in place: optimize a private clone.
		f = f.Clone()
		w = optimize(f)
	}
	c.nextReg = f.NumRegs
	c.inlinedInstr = 0
	c.inlinedSites = 0

	blocks, instrs, err := c.lowerFunc(e, f, w)
	if err != nil {
		// Bail out: stay in the interpreter. The delta still carries any
		// sites inlined before the failing block, matching what the counters
		// historically recorded on a bail.
		return nil, unitMeta{inlined: c.inlinedSites, bailed: true,
			bailMsg: fmt.Sprintf("%s: %v", f.Name, err)}
	}
	// The size stats are committed only on success: a compilation that bails
	// after lowering a few blocks must not inflate InstrsTotal (it produced
	// no compiled code).
	numRegs := c.nextReg
	meta := unitMeta{instrs: instrs, inlined: c.inlinedSites}
	return func(e *core.Engine, fr *core.Frame) (core.Value, error) {
		// The clone may have added registers (promoted scalars, inline
		// windows).
		fr.Reserve(numRegs)
		return runBlocks(e, fr, blocks, 0)
	}, meta
}

// optimize runs the tier-2 pass pipeline over f in place and returns its
// weight account. Every pass preserves safety: none removes a load or a
// store, so no check can be optimized away.
func optimize(f *ir.Func) opt.Weights {
	w := opt.NewWeights(f)
	opt.Mem2Reg(f)
	opt.FoldConstants(f)
	opt.CopyPropagate(f)
	opt.CSEAddresses(f)
	opt.CopyPropagate(f)
	opt.SweepDeadMoves(f, w)
	return w
}

// runBlocks executes lowered blocks against fr, entering at block blk, until
// one returns. It is the one block runner: entry compiles enter at block 0,
// OSR entries at their loop header, inlined callees at block 0 of their
// register window.
func runBlocks(e *core.Engine, fr *core.Frame, blocks []block, blk int) (core.Value, error) {
	for {
		b := &blocks[blk]
		// Fuel + cancellation: one charge per basic block. This is the
		// execution governor's tier-1 hook — compiled loops consume the
		// same step budget as interpreted ones and observe cooperative
		// cancellation at every block boundary.
		if err := e.ChargeSteps(b.cost); err != nil {
			return core.Value{}, err
		}
		for i, s := range b.body {
			if err := s(e, fr); err != nil {
				e.RefundSteps(b.refund[i])
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

// lowerFunc lowers every block of f (whose weight account is w) and returns
// the blocks plus the instruction count.
func (c *Compiler) lowerFunc(e *core.Engine, f *ir.Func, w opt.Weights) ([]block, int, error) {
	var uses []int // only cmp+condbr fusion reads them
	if !c.plain {
		uses = regUsesJIT(f, c.nextReg)
	}
	blocks := make([]block, len(f.Blocks))
	instrs := 0
	for bi, b := range f.Blocks {
		lb, err := c.lowerBlock(e, f, b, w[bi], uses)
		if err != nil {
			return nil, 0, err
		}
		blocks[bi] = lb
		instrs += len(b.Instrs)
	}
	return blocks, instrs, nil
}

// lowerBlock lowers one basic block: instruction closures with per-step
// weights (for fault refunds), tier-2 gep+access superinstructions, and the
// cmp+condbr terminator fusion.
func (c *Compiler) lowerBlock(e *core.Engine, f *ir.Func, b *ir.Block, bw []int64, uses []int) (block, error) {
	n := len(b.Instrs)
	tier2 := !c.plain
	i := 0
	last := n - 1 // terminator index

	// cmp+condbr fusion: when the final non-terminator is a comparison
	// consumed only by the conditional branch, evaluate it inside the
	// terminator closure (one dispatch instead of two). Its weight moves to
	// the terminator; neither instruction can fault, so refunds are
	// unaffected.
	fuseCmp := false
	if tier2 && n >= 2 {
		cmp := &b.Instrs[n-2]
		t := &b.Instrs[n-1]
		if cmp.Op == ir.OpCmp && t.Op == ir.OpCondBr &&
			t.A.Kind == ir.OperReg && t.A.Reg == cmp.Dst &&
			cmp.Dst >= 0 && int(cmp.Dst) < len(uses) && uses[cmp.Dst] == 1 {
			fuseCmp = true
			last = n - 2
		}
	}

	body := make([]step, 0, last)
	wts := make([]int64, 0, last)

	for i < last {
		if tier2 && i+1 < last {
			// gep+load / gep+store superinstruction.
			if st, ok, err := c.tryFusePair(e, f, &b.Instrs[i], &b.Instrs[i+1]); err != nil {
				return block{}, err
			} else if ok {
				body = append(body, st)
				wts = append(wts, bw[i]+bw[i+1])
				i += 2
				continue
			}
		}
		st, err := c.compileStep(e, f, &b.Instrs[i])
		if err != nil {
			return block{}, err
		}
		body = append(body, st)
		wts = append(wts, bw[i])
		i++
	}

	var t term
	var err error
	termWeight := bw[n-1]
	if fuseCmp {
		t, err = c.compileFusedCmpBr(e, &b.Instrs[n-2], &b.Instrs[n-1])
		termWeight += bw[n-2]
	} else {
		t, err = c.compileTerm(e, f, &b.Instrs[n-1])
	}
	if err != nil {
		return block{}, err
	}

	cost := termWeight
	for _, x := range wts {
		cost += x
	}
	// The step weights become the refunds in place.
	var prefix int64
	for j, x := range wts {
		prefix += x
		wts[j] = cost - prefix
	}
	return block{body: body, term: t, cost: cost, refund: wts}, nil
}

// regUsesJIT counts operand reads per register (array sized to cover the
// possibly-remapped register space).
func regUsesJIT(f *ir.Func, size int) []int {
	if size < f.NumRegs {
		size = f.NumRegs
	}
	uses := make([]int, size)
	mark := func(o *ir.Operand) {
		if o.Kind == ir.OperReg && o.Reg >= 0 && int(o.Reg) < size {
			uses[o.Reg]++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].Operands(mark)
		}
	}
	return uses
}

// getter resolves one operand; the decode happens at compile time.
type getter func(e *core.Engine, fr *core.Frame) core.Value

func (c *Compiler) compileOperand(e *core.Engine, o ir.Operand) (getter, error) {
	switch o.Kind {
	case ir.OperReg:
		r := o.Reg
		return func(e *core.Engine, fr *core.Frame) core.Value { return fr.Regs[r] }, nil
	case ir.OperConstInt:
		v := core.IntValue(o.Int)
		return func(e *core.Engine, fr *core.Frame) core.Value { return v }, nil
	case ir.OperConstFloat:
		v := core.FloatValue(o.Flt())
		return func(e *core.Engine, fr *core.Frame) core.Value { return v }, nil
	case ir.OperGlobal:
		// Resolve to the module global *index* at compile time and to the
		// engine's object at run time: the compiled closure depends only on
		// the module, so the executable-code cache can share it across every
		// engine (and every pooled reset) running this module.
		gi := e.Module().GlobalIndex(o.Sym)
		if gi < 0 {
			return nil, fmt.Errorf("jit: unknown global %s", o.Sym)
		}
		return func(e *core.Engine, fr *core.Frame) core.Value {
			return core.PtrValue(core.Pointer{Obj: e.GlobalAt(gi)})
		}, nil
	case ir.OperFunc:
		idx := e.Module().FuncIndex(o.Sym)
		if idx < 0 {
			return nil, fmt.Errorf("jit: unknown function %s", o.Sym)
		}
		v := core.PtrValue(core.FuncPointer(idx))
		return func(e *core.Engine, fr *core.Frame) core.Value { return v }, nil
	case ir.OperNull:
		return func(e *core.Engine, fr *core.Frame) core.Value { return core.Value{} }, nil
	}
	return nil, fmt.Errorf("jit: bad operand kind %d", o.Kind)
}

func (c *Compiler) compileStep(e *core.Engine, f *ir.Func, in *ir.Instr) (step, error) {
	fname := f.Name
	line := int(in.Line)
	switch in.Op {
	case ir.OpAlloca:
		ty := in.Ty
		name := in.Name()
		dst := in.Dst
		size := ty.Size()
		ctype := in.CType()
		if cnt, ok := in.CountOp(); ok {
			getCnt, err := c.compileOperand(e, cnt)
			if err != nil {
				return nil, err
			}
			return func(e *core.Engine, fr *core.Frame) error {
				n := getCnt(e, fr).I
				p, err := e.AllocAuto(fr, size*n, name, ty, ctype, fname, line)
				if err != nil {
					return err
				}
				e.TrackAuto(fr, p)
				fr.Regs[dst] = core.PtrValue(p)
				return nil
			}, nil
		}
		return func(e *core.Engine, fr *core.Frame) error {
			p, err := e.AllocAuto(fr, size, name, ty, ctype, fname, line)
			if err != nil {
				return err
			}
			e.TrackAuto(fr, p)
			fr.Regs[dst] = core.PtrValue(p)
			return nil
		}, nil

	case ir.OpLoad:
		return c.compileLoad(e, in, fname, line)

	case ir.OpStore:
		return c.compileStore(e, in, fname, line)

	case ir.OpGEP:
		dst := in.Dst
		stride := in.Stride
		if in.Addr.Kind == ir.OperReg {
			base := in.Addr.Reg
			if in.A.Kind == ir.OperConstInt {
				delta := stride * in.A.Int
				return func(e *core.Engine, fr *core.Frame) error {
					fr.Regs[dst] = core.PtrValue(fr.Regs[base].P.Add(delta))
					return nil
				}, nil
			}
			if in.A.Kind == ir.OperReg {
				idx := in.A.Reg
				return func(e *core.Engine, fr *core.Frame) error {
					fr.Regs[dst] = core.PtrValue(fr.Regs[base].P.Add(stride * fr.Regs[idx].I))
					return nil
				}, nil
			}
		}
		getAddr, err := c.compileOperand(e, in.Addr)
		if err != nil {
			return nil, err
		}
		if in.A.Kind == ir.OperConstInt {
			delta := stride * in.A.Int
			return func(e *core.Engine, fr *core.Frame) error {
				fr.Regs[dst] = core.PtrValue(getAddr(e, fr).P.Add(delta))
				return nil
			}, nil
		}
		getIdx, err := c.compileOperand(e, in.A)
		if err != nil {
			return nil, err
		}
		return func(e *core.Engine, fr *core.Frame) error {
			fr.Regs[dst] = core.PtrValue(getAddr(e, fr).P.Add(stride * getIdx(e, fr).I))
			return nil
		}, nil

	case ir.OpBin:
		return c.compileBin(e, in, fname, line)

	case ir.OpCmp:
		return c.compileCmp(e, in)

	case ir.OpCast:
		return c.compileCast(e, in, fname, line)

	case ir.OpSelect:
		getT, err := c.compileOperand(e, in.B)
		if err != nil {
			return nil, err
		}
		getF, err := c.compileOperand(e, in.Ext.C)
		if err != nil {
			return nil, err
		}
		dst := in.Dst
		if in.A.Kind == ir.OperReg {
			cond := in.A.Reg
			return func(e *core.Engine, fr *core.Frame) error {
				if fr.Regs[cond].I != 0 {
					fr.Regs[dst] = getT(e, fr)
				} else {
					fr.Regs[dst] = getF(e, fr)
				}
				return nil
			}, nil
		}
		getC, err := c.compileOperand(e, in.A)
		if err != nil {
			return nil, err
		}
		return func(e *core.Engine, fr *core.Frame) error {
			if getC(e, fr).I != 0 {
				fr.Regs[dst] = getT(e, fr)
			} else {
				fr.Regs[dst] = getF(e, fr)
			}
			return nil
		}, nil

	case ir.OpCall:
		return c.compileCall(e, in, fname)
	}
	return nil, fmt.Errorf("jit: unexpected opcode %v mid-block", in.Op)
}

func (c *Compiler) compileTerm(e *core.Engine, f *ir.Func, in *ir.Instr) (term, error) {
	switch in.Op {
	case ir.OpBr:
		next := int(in.Blk0)
		return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
			return next, core.Value{}, false, nil
		}, nil
	case ir.OpCondBr:
		t, fl := int(in.Blk0), int(in.Blk1)
		if in.A.Kind == ir.OperReg {
			cond := in.A.Reg
			return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
				if fr.Regs[cond].I != 0 {
					return t, core.Value{}, false, nil
				}
				return fl, core.Value{}, false, nil
			}, nil
		}
		getC, err := c.compileOperand(e, in.A)
		if err != nil {
			return nil, err
		}
		return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
			if getC(e, fr).I != 0 {
				return t, core.Value{}, false, nil
			}
			return fl, core.Value{}, false, nil
		}, nil
	case ir.OpSwitch:
		getV, err := c.compileOperand(e, in.A)
		if err != nil {
			return nil, err
		}
		def := int(in.Blk0)
		table := make(map[int64]int, len(in.Ext.Cases))
		for _, cs := range in.Ext.Cases {
			table[cs.Val] = int(cs.Blk)
		}
		return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
			if blk, ok := table[getV(e, fr).I]; ok {
				return blk, core.Value{}, false, nil
			}
			return def, core.Value{}, false, nil
		}, nil
	case ir.OpRet:
		if in.A.Kind == ir.OperNone {
			return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
				return 0, core.Value{}, true, nil
			}, nil
		}
		if in.A.Kind == ir.OperReg {
			r := in.A.Reg
			return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
				return 0, fr.Regs[r], true, nil
			}, nil
		}
		getV, err := c.compileOperand(e, in.A)
		if err != nil {
			return nil, err
		}
		return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
			return 0, getV(e, fr), true, nil
		}, nil
	case ir.OpUnreachable:
		name := f.Name
		line := int(in.Line)
		return func(e *core.Engine, fr *core.Frame) (int, core.Value, bool, error) {
			// Identical message and guest stack to the tier-0 interpreter, so
			// the two tiers classify and render this fault the same way.
			return 0, core.Value{}, false, &core.InternalError{
				Msg:   fmt.Sprintf("reached unreachable in %s", name),
				Guest: e.CaptureStack(name, line),
			}
		}, nil
	}
	return nil, fmt.Errorf("jit: bad terminator %v", in.Op)
}
