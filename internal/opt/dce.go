package opt

import "repro/internal/ir"

// DeadStoreElim removes stores to stack objects that are never read and
// whose address never escapes. This is the pass that erases the paper's
// Fig. 3 bug: the out-of-bounds store to the unused array disappears, so no
// downstream tool can observe it.
func DeadStoreElim(f *ir.Func) {
	// Address set rooted at each alloca: the alloca register plus every gep
	// derived from a register in the set.
	root := make([]int32, f.NumRegs) // reg -> alloca dst reg + 1, 0 = none
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpAlloca {
				root[in.Dst] = in.Dst + 1
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpGEP && in.Addr.Kind == ir.OperReg && root[in.Addr.Reg] != 0 {
					if root[in.Dst] != root[in.Addr.Reg] {
						root[in.Dst] = root[in.Addr.Reg]
						changed = true
					}
				}
			}
		}
	}
	// loaded / escaped analysis per alloca root.
	loaded := map[int32]bool{}
	escaped := map[int32]bool{}
	note := func(o ir.Operand, esc bool) {
		if o.Kind == ir.OperReg && root[o.Reg] != 0 && esc {
			escaped[root[o.Reg]-1] = true
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoad:
				if in.Addr.Kind == ir.OperReg && root[in.Addr.Reg] != 0 {
					loaded[root[in.Addr.Reg]-1] = true
				}
			case ir.OpStore:
				note(in.A, true) // storing the pointer itself is an escape
			case ir.OpGEP:
				// base already tracked; index operand can't be a pointer
				note(in.A, true)
			case ir.OpAlloca:
			default:
				in.Operands(func(o *ir.Operand) { note(*o, true) })
			}
		}
	}
	// Delete stores whose target root is never loaded and never escapes.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpStore || in.Addr.Kind != ir.OperReg || root[in.Addr.Reg] == 0 {
				continue
			}
			r := root[in.Addr.Reg] - 1
			if !loaded[r] && !escaped[r] {
				makeNop(f, in)
			}
		}
	}
}

// DeadCodeElim removes pure instructions whose results are never used.
// Unused loads are deletable too: under C's semantics an invalid access is
// undefined behaviour, so the optimizer may assume it never happens — the
// precise reasoning that makes native-pipeline tools miss bugs.
func DeadCodeElim(f *ir.Func) {
	for {
		uses := regUses(f)
		removed := false
		for _, b := range f.Blocks {
			dst := b.Instrs[:0]
			for i := range b.Instrs {
				in := b.Instrs[i]
				if isPureValueOp(in.Op) && in.Dst >= 0 && uses[in.Dst] == 0 {
					removed = true
					continue
				}
				dst = append(dst, in)
			}
			b.Instrs = dst
		}
		if !removed {
			return
		}
	}
}

func producesValue(op ir.Opcode) bool {
	switch op {
	case ir.OpAlloca, ir.OpLoad, ir.OpBin, ir.OpCmp, ir.OpCast, ir.OpGEP, ir.OpSelect:
		return true
	}
	return false
}

func isPureValueOp(op ir.Opcode) bool {
	switch op {
	case ir.OpBin, ir.OpCmp, ir.OpCast, ir.OpGEP, ir.OpSelect, ir.OpAlloca, ir.OpLoad:
		return true
	}
	return false
}

// DeleteDeadLoops removes control-flow cycles that contain no observable
// effects (no stores, loads, calls, or returns). C compilers assume loop
// termination, so `for (i = 0; i < n; i++);` folds to nothing — even when
// the deleted body used to contain the program's only memory error.
func DeleteDeadLoops(f *ir.Func) {
	n := len(f.Blocks)
	succ := make([][]int, n)
	for i, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.OpBr:
			succ[i] = []int{int(t.Blk0)}
		case ir.OpCondBr:
			succ[i] = []int{int(t.Blk0), int(t.Blk1)}
		case ir.OpSwitch:
			succ[i] = []int{int(t.Blk0)}
			for _, c := range t.Ext.Cases {
				succ[i] = append(succ[i], int(c.Blk))
			}
		}
	}
	for _, scc := range sccs(succ) {
		inSCC := map[int]bool{}
		for _, b := range scc {
			inSCC[b] = true
		}
		if len(scc) == 1 {
			self := false
			for _, s := range succ[scc[0]] {
				if s == scc[0] {
					self = true
				}
			}
			if !self {
				continue
			}
		}
		pure := true
		exits := map[int]bool{}
		defined := map[int32]bool{}
		for _, bi := range scc {
			for i := range f.Blocks[bi].Instrs {
				in := &f.Blocks[bi].Instrs[i]
				switch in.Op {
				case ir.OpStore, ir.OpCall, ir.OpRet, ir.OpLoad, ir.OpUnreachable, ir.OpAlloca:
					pure = false
				}
				if in.Dst >= 0 && producesValue(in.Op) {
					defined[in.Dst] = true
				}
			}
			for _, s := range succ[bi] {
				if !inSCC[s] {
					exits[s] = true
				}
			}
		}
		if !pure || len(exits) != 1 {
			continue
		}
		// A register written inside the loop and read outside is a live-out
		// value: the loop computes something, so it stays.
		liveOut := false
		for bi := range f.Blocks {
			if inSCC[bi] {
				continue
			}
			for i := range f.Blocks[bi].Instrs {
				f.Blocks[bi].Instrs[i].Operands(func(o *ir.Operand) {
					if o.Kind == ir.OperReg && defined[o.Reg] {
						liveOut = true
					}
				})
			}
		}
		if liveOut {
			continue
		}
		var exit int32
		for e := range exits {
			exit = int32(e)
		}
		// Redirect every entry edge into the cycle straight to the exit.
		for bi := range f.Blocks {
			if inSCC[bi] {
				continue
			}
			t := f.Blocks[bi].Terminator()
			if t == nil {
				continue
			}
			redirect := func(blk *int32) {
				if inSCC[int(*blk)] {
					*blk = exit
				}
			}
			switch t.Op {
			case ir.OpBr, ir.OpCondBr, ir.OpSwitch:
				redirect(&t.Blk0)
				if t.Op == ir.OpCondBr {
					redirect(&t.Blk1)
				}
				if t.Op == ir.OpSwitch {
					for ci := range t.Ext.Cases {
						redirect(&t.Ext.Cases[ci].Blk)
					}
				}
			}
		}
	}
}

// sccs computes strongly connected components (iterative Tarjan).
func sccs(succ [][]int) [][]int {
	n := len(succ)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	next := 0

	type frame struct {
		v, ci int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		var callStack []frame
		callStack = append(callStack, frame{start, 0})
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			if fr.ci < len(succ[fr.v]) {
				w := succ[fr.v][fr.ci]
				fr.ci++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, 0})
				} else if onStack[w] && index[w] < low[fr.v] {
					low[fr.v] = index[w]
				}
				continue
			}
			v := fr.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				out = append(out, comp)
			}
		}
	}
	return out
}
