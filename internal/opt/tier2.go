// Tier-2 optimization passes for the tier-1 dynamic compiler (internal/jit).
//
// These passes are *safety-preserving* in the paper's sense (§4.2: the JIT
// "optimizes based on safe semantics [and] cannot optimize away invalid
// accesses"): they may rewrite how a value is computed — a register read
// for a copy, a constant for a folded expression, one address computation
// for a redundant one — but every check stays at its own site, and a
// faulting access must still fault at the same instruction with the same
// diagnostic. The legality rule, enforced by the full-corpus tier-parity
// suite, is:
//
//	every access is checked at its own site; no check moves or disappears.
//
// Because the execution governor charges fuel per instruction in tier 0, the
// passes also maintain a weight account (Weights): every tier-0 instruction
// carries weight 1, and any transformation that removes an instruction folds
// its weight into the next instruction that still executes. The compiled
// block's cost is the sum of its weights, so Stats.Steps — and the exact
// step at which Config.MaxSteps fires — stay byte-identical across tiers
// even when tier 2 has restructured the code.
package opt

import (
	"repro/internal/ir"
)

// Weights carries, per block and per instruction, the number of tier-0
// interpreter steps the instruction accounts for. A freshly built function
// has weight 1 everywhere; only SweepDeadMoves changes it, and it only
// moves weight onto a later instruction of the same block.
//
// Folding direction: tier 0 charges a step *before* executing an
// instruction, so when an instruction is deleted its weight must attach to
// the next surviving instruction in the block (or the terminator). That way
// a fault at any surviving instruction refunds exactly the weights of the
// instructions that had not yet started in tier-0 order.
type Weights [][]int64

// NewWeights builds the identity weight account for f: one step per
// instruction, mirroring the tier-0 interpreter.
func NewWeights(f *ir.Func) Weights {
	w := make(Weights, len(f.Blocks))
	for i, b := range f.Blocks {
		bw := make([]int64, len(b.Instrs))
		for j := range bw {
			bw[j] = 1
		}
		w[i] = bw
	}
	return w
}

// isMoveCast reports whether an instruction is a pure register/constant move
// in the canonical value domain: bitcasts, sign extensions (register values
// are already stored sign-extended to 64 bits, so SExt is the identity — the
// same equivalence the tier-1 lowering has always used), and zero extensions
// from i1 (an i1 value is 0 or 1; zero-extending it changes nothing).
func isMoveCast(in *ir.Instr) bool {
	// A cast carrying a declared C type is a *checked* cast — the engines
	// validate it against the pointee's effective type — never a pure move.
	if in.Op != ir.OpCast || in.Dst < 0 || in.CType() != "" {
		return false
	}
	switch in.Cast {
	case ir.Bitcast, ir.SExt:
		return true
	case ir.ZExt:
		if it, ok := in.Ty.(*ir.IntType); ok && it.Bits == 1 {
			return true
		}
	}
	return false
}

// CopyPropagate performs block-local copy propagation on the mutable SIR
// registers: uses of a register that currently holds a copy of another
// register (or a constant) read the source directly. It also normalizes
// identity casts (SExt, ZExt-from-i1) into plain moves and rewrites the
// frontend's bool-materialization chain (cmp → zext → cmp ne 0) into moves,
// so the later sweep can retire the dead intermediates.
//
// The pass only rewrites operands to value-identical sources, so every
// check still sees the same pointer and the same index: a faulting access
// faults at the same instruction with the same diagnostic.
func CopyPropagate(f *ir.Func) {
	for _, b := range f.Blocks {
		known := map[int32]ir.Operand{} // reg -> current value source (reg or const)
		isBool := map[int32]bool{}      // reg -> definitely holds 0/1
		resolve := func(o *ir.Operand) {
			if o.Kind == ir.OperReg {
				if c, ok := known[o.Reg]; ok {
					c.Ty = o.Ty
					*o = c
				}
			}
		}
		// kill invalidates everything that depends on register r.
		kill := func(r int32) {
			delete(known, r)
			for k, v := range known {
				if v.Kind == ir.OperReg && v.Reg == r {
					delete(known, k)
				}
			}
			delete(isBool, r)
		}
		boolSource := func(o ir.Operand) bool {
			switch o.Kind {
			case ir.OperReg:
				return isBool[o.Reg]
			case ir.OperConstInt:
				return o.Int == 0 || o.Int == 1
			}
			return false
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.Operands(resolve)

			// Normalize identity casts to moves so they participate in copy
			// propagation and dead-move sweeping.
			if isMoveCast(in) && in.Cast != ir.Bitcast {
				makeMove(in, in.A, in.Ty2)
			}
			// Bool-chain peephole: `cmp ne (0/1-valued x), 0` is x itself.
			if in.Op == ir.OpCmp && in.Pred == ir.Ne &&
				in.B.Kind == ir.OperConstInt && in.B.Int == 0 &&
				!ir.IsPtr(in.Ty) && boolSource(in.A) {
				makeMove(in, in.A, ir.I1)
			}

			if in.Dst < 0 {
				continue
			}
			// Compute source booleanness before the kill: a self-move keeps
			// its own (pre-redefinition) classification.
			srcBool := in.Op == ir.OpCast && in.Cast == ir.Bitcast && boolSource(in.A)
			kill(in.Dst)
			switch {
			case in.Op == ir.OpCast && in.Cast == ir.Bitcast && in.CType() == "" &&
				(in.A.Kind == ir.OperReg || in.A.Kind == ir.OperConstInt || in.A.Kind == ir.OperConstFloat):
				if !(in.A.Kind == ir.OperReg && in.A.Reg == in.Dst) {
					known[in.Dst] = in.A
				}
				if srcBool {
					isBool[in.Dst] = true
				}
			case in.Op == ir.OpCmp:
				isBool[in.Dst] = true
			}
		}
	}
}

// CSEAddresses merges block-local redundant address computations: two GEPs
// with the same base, stride, and index (none redefined in between) compute
// the same pointer, so the second becomes a move of the first. Address
// *computation* is pure in the managed model — pointer arithmetic never
// traps, only dereferencing does (paper Fig. 6) — so merging it cannot move
// or mask a check; it just turns the second into a move, which copy
// propagation forwards and the sweep retires, so the access it fed reads
// the first address register directly and is still checked in place.
func CSEAddresses(f *ir.Func) {
	type gepKey struct {
		addrKind ir.OperandKind
		addrReg  int32
		addrSym  string
		stride   int64
		idxKind  ir.OperandKind
		idxReg   int32
		idxInt   int64
	}
	keyReads := func(k gepKey, r int32) bool {
		return (k.addrKind == ir.OperReg && k.addrReg == r) ||
			(k.idxKind == ir.OperReg && k.idxReg == r)
	}
	for _, b := range f.Blocks {
		avail := map[gepKey]int32{} // key -> register holding the result
		invalidate := func(r int32) {
			for k, v := range avail {
				if v == r || keyReads(k, r) {
					delete(avail, k)
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpGEP && in.Dst >= 0 &&
				(in.Addr.Kind == ir.OperReg || in.Addr.Kind == ir.OperGlobal) &&
				(in.A.Kind == ir.OperReg || in.A.Kind == ir.OperConstInt) {
				k := gepKey{
					addrKind: in.Addr.Kind, addrReg: in.Addr.Reg, addrSym: in.Addr.Sym,
					stride:  in.Stride,
					idxKind: in.A.Kind, idxReg: in.A.Reg, idxInt: in.A.Int,
				}
				if prev, ok := avail[k]; ok && prev != in.Dst {
					makeMove(in, ir.Reg(prev, ir.BytePtr), ir.BytePtr)
					invalidate(in.Dst)
					continue
				}
				invalidate(in.Dst)
				if !keyReads(k, in.Dst) { // r = gep r, …: result key is stale
					avail[k] = in.Dst
				}
				continue
			}
			if in.Dst >= 0 {
				invalidate(in.Dst)
			}
		}
	}
}

// SweepDeadMoves removes register moves (bitcasts) whose destination is
// never read, folding each removed instruction's weight into the next
// surviving instruction so tier-1 fuel accounting stays byte-identical to
// tier 0. Moves are pure by construction, so removing an unread one cannot
// erase a check — this is the only tier-2 pass that deletes instructions,
// and it only ever deletes moves.
func SweepDeadMoves(f *ir.Func, w Weights) {
	uses := regUses(f)
	for bi, b := range f.Blocks {
		bw := w[bi]
		dst := b.Instrs[:0]
		dw := bw[:0]
		var carry int64
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpCast && in.Cast == ir.Bitcast && in.CType() == "" && in.Dst >= 0 && int(in.Dst) < len(uses) &&
				uses[in.Dst] == 0 && len(b.Instrs) > 1 {
				// Weight attaches to the next surviving instruction; the
				// terminator is never a move, so a carrier always exists.
				carry += bw[i]
				continue
			}
			dst = append(dst, in)
			dw = append(dw, bw[i]+carry)
			carry = 0
		}
		b.Instrs = dst
		w[bi] = dw
	}
}
