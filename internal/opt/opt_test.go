package opt

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func countOps(f *ir.Func, op ir.Opcode) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestMem2RegPromotesScalars(t *testing.T) {
	m := parse(t, `module "t"
func @f fn() i32 regs 5 {
entry:
  %r0 = alloca i32 name "x"
  store i32 41, %r0
  %r1 = load i32, %r0
  %r2 = add i32 %r1, 1
  ret i32 %r2
}
`)
	f := m.Func("f")
	Mem2Reg(f)
	if countOps(f, ir.OpLoad) != 0 || countOps(f, ir.OpStore) != 0 {
		t.Errorf("loads/stores remain after promotion:\n%s", ir.PrintFunc(f))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestMem2RegSkipsEscaping(t *testing.T) {
	m := parse(t, `module "t"
declare @sink fn(ptr) void
func @f fn() i32 regs 4 {
entry:
  %r0 = alloca i32 name "x"
  call void &sink(ptr %r0) fixed 1
  %r1 = load i32, %r0
  ret i32 %r1
}
`)
	f := m.Func("f")
	Mem2Reg(f)
	if countOps(f, ir.OpAlloca) != 1 {
		t.Error("escaping alloca must not be promoted")
	}
}

func TestMem2RegSkipsMixedWidthAccess(t *testing.T) {
	m := parse(t, `module "t"
func @f fn() i32 regs 4 {
entry:
  %r0 = alloca i32 name "x"
  store i32 258, %r0
  %r1 = load i8, %r0
  %r2 = zext i8 %r1 to i32
  ret i32 %r2
}
`)
	f := m.Func("f")
	Mem2Reg(f)
	if countOps(f, ir.OpAlloca) != 1 {
		t.Error("mixed-width access must block promotion (bit reinterpretation)")
	}
}

func TestFoldConstantsAndBranches(t *testing.T) {
	m := parse(t, `module "t"
func @f fn() i32 regs 4 {
entry:
  %r0 = add i32 2, 3
  %r1 = cmp slt i32 %r0, 10
  condbr %r1, yes, no
yes:
  ret i32 1
no:
  ret i32 0
}
`)
	f := m.Func("f")
	FoldConstants(f)
	if countOps(f, ir.OpCondBr) != 0 {
		t.Errorf("constant branch not folded:\n%s", ir.PrintFunc(f))
	}
}

func TestDeadStoreElimRemovesFig3Stores(t *testing.T) {
	m := parse(t, `module "t"
func @f fn(i64) i32 regs 6 {
entry:
  %r1 = alloca [10 x i32] name "arr"
  br cond
cond:
  %r2 = cmp slt i64 %r0, 10
  condbr %r2, body, done
body:
  %r3 = gep %r1, 4, %r0
  store i32 7, %r3
  br cond
done:
  ret i32 0
}
`)
	f := m.Func("f")
	DeadStoreElim(f)
	DeadCodeElim(f)
	if countOps(f, ir.OpStore) != 0 {
		t.Errorf("dead store to unused array survives:\n%s", ir.PrintFunc(f))
	}
}

func TestDeadStoreElimKeepsLoadedArrays(t *testing.T) {
	m := parse(t, `module "t"
func @f fn() i32 regs 5 {
entry:
  %r0 = alloca [4 x i32] name "arr"
  %r1 = gep %r0, 4, 1
  store i32 7, %r1
  %r2 = load i32, %r1
  ret i32 %r2
}
`)
	f := m.Func("f")
	DeadStoreElim(f)
	if countOps(f, ir.OpStore) != 1 {
		t.Error("store to a loaded array must stay")
	}
}

func TestDeadCodeElimDeletesUnusedLoads(t *testing.T) {
	m := parse(t, `module "t"
global @g [4 x i32] = zero
func @f fn() i32 regs 4 {
entry:
  %r0 = gep @g, 4, 99
  %r1 = load i32, %r0
  ret i32 0
}
`)
	f := m.Func("f")
	DeadCodeElim(f)
	if countOps(f, ir.OpLoad) != 0 {
		t.Error("unused load should be deleted under native UB semantics")
	}
}

func TestDeleteDeadLoopsRemovesEmptyLoop(t *testing.T) {
	m := parse(t, `module "t"
func @f fn(i64) i32 regs 6 {
entry:
  %r1 = add i64 0, 0
  br cond
cond:
  %r2 = cmp slt i64 %r1, %r0
  condbr %r2, body, done
body:
  %r1 = add i64 %r1, 1
  br cond
done:
  ret i32 0
}
`)
	f := m.Func("f")
	DeleteDeadLoops(f)
	// The entry edge must now bypass the loop.
	term := f.Blocks[0].Terminator()
	if int(term.Blk0) != f.BlockIndex("done") {
		t.Errorf("entry should branch straight to done:\n%s", ir.PrintFunc(f))
	}
}

func TestDeleteDeadLoopsKeepsLiveOutValues(t *testing.T) {
	m := parse(t, `module "t"
func @f fn(i64) i64 regs 6 {
entry:
  %r1 = add i64 0, 0
  br cond
cond:
  %r2 = cmp slt i64 %r1, %r0
  condbr %r2, body, done
body:
  %r1 = add i64 %r1, 1
  br cond
done:
  ret i64 %r1
}
`)
	f := m.Func("f")
	DeleteDeadLoops(f)
	term := f.Blocks[0].Terminator()
	if int(term.Blk0) == f.BlockIndex("done") {
		t.Error("loop with live-out value must not be deleted")
	}
}

func TestFoldConstGlobalLoads(t *testing.T) {
	m := parse(t, `module "t"
global @tab const [3 x i32] = array [int 11, int 22, int 33]
func @in fn() i32 regs 3 {
entry:
  %r0 = gep @tab, 4, 1
  %r1 = load i32, %r0
  ret i32 %r1
}
func @oob fn() i32 regs 3 {
entry:
  %r0 = gep @tab, 4, 7
  %r1 = load i32, %r0
  ret i32 %r1
}
`)
	RunO0(m)
	inF, oobF := m.Func("in"), m.Func("oob")
	if countOps(inF, ir.OpLoad) != 0 {
		t.Errorf("in-bounds const load not folded:\n%s", ir.PrintFunc(inF))
	}
	if countOps(oobF, ir.OpLoad) != 0 {
		t.Errorf("OOB const load should also fold (the Fig. 13 bug deletion):\n%s", ir.PrintFunc(oobF))
	}
	// The folded value of the in-bounds load must be the initializer value.
	found := false
	for _, b := range inF.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCast && in.Cast == ir.Bitcast && in.A.Kind == ir.OperConstInt && in.A.Int == 22 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("folded value should be 22:\n%s", ir.PrintFunc(inF))
	}
}

func TestFoldConstGlobalSkipsMutable(t *testing.T) {
	m := parse(t, `module "t"
global @tab [3 x i32] = array [int 1, int 2, int 3]
func @f fn() i32 regs 3 {
entry:
  %r0 = gep @tab, 4, 0
  %r1 = load i32, %r0
  ret i32 %r1
}
`)
	RunO0(m)
	if countOps(m.Func("f"), ir.OpLoad) != 1 {
		t.Error("non-const global loads must never fold")
	}
}

func TestRunO3PreservesVerification(t *testing.T) {
	m := parse(t, `module "t"
declare @use fn(i32) void
func @f fn(i64) i32 regs 10 {
entry:
  %r1 = alloca i32 name "x"
  store i32 5, %r1
  %r2 = load i32, %r1
  %r3 = add i32 %r2, 2
  call void &use(i32 %r3) fixed 1
  br cond
cond:
  %r4 = cmp slt i64 %r0, 3
  condbr %r4, body, done
body:
  %r0 = add i64 %r0, 1
  br cond
done:
  ret i32 0
}
`)
	RunO3(m)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("O3 output fails verification: %v\n%s", err, ir.Print(m))
	}
	if !strings.Contains(ir.PrintFunc(m.Func("f")), "call") {
		t.Error("call must survive optimization")
	}
}

func TestSCCs(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 (cycle {1,2}), 2 -> 3
	succ := [][]int{{1}, {2}, {1, 3}, {}}
	comps := sccs(succ)
	var cycle []int
	for _, c := range comps {
		if len(c) == 2 {
			cycle = c
		}
	}
	if cycle == nil {
		t.Fatalf("cycle {1,2} not found: %v", comps)
	}
	seen := map[int]bool{cycle[0]: true, cycle[1]: true}
	if !seen[1] || !seen[2] {
		t.Errorf("wrong SCC: %v", cycle)
	}
}

// TestPipelineOnLargeModule is a safety net: running the full -O3 pipeline
// over a big generated module must preserve verification.
func TestPipelineOnLargeModule(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("module \"big\"\n")
	for i := 0; i < 40; i++ {
		sb.WriteString(ir.PrintFunc(makeChainFunc(i)))
	}
	m, err := ir.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	RunO3(m)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("pipeline broke verification: %v", err)
	}
}

func makeChainFunc(seed int) *ir.Func {
	f := &ir.Func{Name: "chain" + itoa(seed), Sig: &ir.FuncType{Ret: ir.I64, Params: []ir.Type{ir.I64}}}
	f.NumRegs = 1
	entry := &ir.Block{Name: "entry"}
	prev := int32(0)
	for i := 0; i < 20; i++ {
		dst := f.NewReg()
		entry.Instrs = append(entry.Instrs, ir.Instr{
			Op: ir.OpBin, Dst: dst, Ty: ir.I64, Bin: ir.BinOp(i % 3),
			A: ir.Reg(prev, ir.I64), B: ir.ConstInt(int64(seed+i), ir.I64),
		})
		prev = dst
	}
	entry.Instrs = append(entry.Instrs, ir.Instr{Op: ir.OpRet, Ty: ir.I64, A: ir.Reg(prev, ir.I64)})
	f.Blocks = []*ir.Block{entry}
	return f
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	out := ""
	for v > 0 {
		out = string(rune('0'+v%10)) + out
		v /= 10
	}
	return out
}
