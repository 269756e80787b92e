// Loop discovery for the tier-1 OSR compiler: "which blocks form a loop, and
// which single block is its header?" The header of a single-header loop is
// the only sound on-stack-replacement entry point.
package opt

import (
	"repro/internal/ir"
)

// Loop is one single-header natural loop of a strongly connected component.
type Loop struct {
	// Header is the unique block inside the loop with predecessors outside
	// it — the block a back edge targets, and the only sound OSR entry point.
	Header int
}

// Successors returns the CFG successor lists of f's blocks.
func Successors(f *ir.Func) [][]int {
	succ := make([][]int, len(f.Blocks))
	for i, b := range f.Blocks {
		t := b.Terminator()
		switch t.Op {
		case ir.OpBr:
			succ[i] = append(succ[i], int(t.Blk0))
		case ir.OpCondBr:
			succ[i] = append(succ[i], int(t.Blk0), int(t.Blk1))
		case ir.OpSwitch:
			succ[i] = append(succ[i], int(t.Blk0))
			for _, c := range t.Ext.Cases {
				succ[i] = append(succ[i], int(c.Blk))
			}
		}
	}
	return succ
}

// Loops returns f's single-header loops: every non-trivial strongly
// connected component (or self-looping block) that is entered through
// exactly one block. Multi-entry components — only constructible with goto —
// are skipped: OSR has no unique replacement point in them. The implicit function-entry
// edge counts as an outside predecessor of block 0, so a component
// containing the entry block is single-header only if no other member has
// outside predecessors.
func Loops(f *ir.Func) []Loop {
	succ := Successors(f)
	pred := make([][]int, len(succ))
	for i, ss := range succ {
		for _, s := range ss {
			pred[s] = append(pred[s], i)
		}
	}

	var loops []Loop
	for _, comp := range sccs(succ) {
		if len(comp) == 1 {
			self := false
			for _, s := range succ[comp[0]] {
				if s == comp[0] {
					self = true
				}
			}
			if !self {
				continue
			}
		}
		inLoop := map[int]bool{}
		for _, b := range comp {
			inLoop[b] = true
		}
		header := -1
		multi := false
		for _, b := range comp {
			outside := false
			for _, p := range pred[b] {
				if !inLoop[p] {
					outside = true
				}
			}
			if b == 0 {
				// The implicit entry edge enters block 0 from outside any loop.
				outside = true
			}
			if outside {
				if header >= 0 && header != b {
					multi = true
				}
				header = b
			}
		}
		if header < 0 || multi {
			continue
		}
		loops = append(loops, Loop{Header: header})
	}
	return loops
}
