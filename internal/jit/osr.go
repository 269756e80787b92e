// On-stack replacement: entering compiled code mid-activation.
//
// An OSR entry is requested by the interpreter mid-activation, so the
// compiled code must execute against the *live* interpreter frame. That
// rules out every pass that reshapes the register file or the instruction
// stream (mem2reg, copy propagation, CSE, fusion, inlining): an OSR
// entry is the plain lowering a DisableMem2Reg entry compile gets, of the
// shared module function itself. Lowered step i of block b executes IR
// instruction i of block b against the same registers the interpreter was
// using, and every weight is 1. What remains is still the tier-1 win:
// dispatch and operand decoding disappear, scalar memory traffic takes the
// core.Direct* fast paths in front of the generic checked access, and direct
// calls are pre-resolved. The blocks run in the entry compiler's block
// runner, entered at the loop header instead of block 0.
package jit

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
)

// CompileOSR returns a frame-compatible compiled entry into the function at
// fidx at the given loop header. The header is validated against the
// single-header loop analysis (opt.Loops): a dynamically observed backward
// branch that is not a single-header loop edge is refused silently — the
// profiler counts raw backward branches, so irregular targets
// (a `continue` edge, front-end-shaped control flow) are an expected
// negative answer, not a compiler failure worth a bail-out entry. A nil
// result means the interpreter keeps the loop and the engine never re-asks.
//
// The lowering does not depend on the header: every block is lowered, and
// the header only picks the entry. With a Cache attached, the loop-header
// set and the lowering are computed once per unit function and shared by
// every engine (see codecache.go).
func (c *Compiler) CompileOSR(e *core.Engine, fidx, header int) core.CompiledFunc {
	f := e.Module().Funcs[fidx]
	if f.IsDecl || header < 0 || header >= len(f.Blocks) {
		return nil
	}
	if c.Cache != nil {
		return c.Cache.compileOSR(c, e, fidx, header)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !loopHeaders(f)[header] {
		return nil
	}
	blocks, err := c.lowerOSR(e, f)
	if err != nil {
		c.bail(f.Name, err)
		return nil
	}
	return enterAt(blocks, header)
}

// loopHeaders marks the blocks of f that head a single-header loop
// (opt.Loops): the only sound OSR entries.
func loopHeaders(f *ir.Func) []bool {
	hs := make([]bool, len(f.Blocks))
	for _, l := range opt.Loops(f) {
		hs[l.Header] = true
	}
	return hs
}

// lowerOSR lowers every block of f in plain mode. No clone and no passes:
// lowering only reads the (shared, immutable) module function, and
// registers must map 1:1 to the live frame. Callers hold c.mu.
func (c *Compiler) lowerOSR(e *core.Engine, f *ir.Func) ([]block, error) {
	c.nextReg = f.NumRegs
	c.plain = true
	blocks, _, err := c.lowerFunc(e, f, opt.NewWeights(f))
	return blocks, err
}

// enterAt runs lowered blocks against the live interpreter frame, entering
// at block header.
func enterAt(blocks []block, header int) core.CompiledFunc {
	return func(e *core.Engine, fr *core.Frame) (core.Value, error) {
		return runBlocks(e, fr, blocks, header)
	}
}
