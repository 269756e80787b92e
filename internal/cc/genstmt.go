package cc

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/ir"
)

// BuiltinMemcpy and BuiltinMemset are IR-level intrinsics every engine
// implements natively. The front end emits them for struct assignment and
// partial initializer zero-fill.
const (
	BuiltinMemcpy = "__builtin_memcpy"
	BuiltinMemset = "__builtin_memset"
)

// local is a function-scope variable; every local lives in an alloca
// (Clang -O0 behaviour), which keeps the IR uniform. The optimizer and the
// JIT promote non-address-taken scalars back to registers.
type local struct {
	addr int32 // register holding the alloca's address
	ty   *CType
}

type pendingGoto struct {
	blk   int32
	instr int
	name  string
	pos   Pos
}

// blockScratch is the storage a function's blocks are lowered into: block
// i is named names[i] and holds code[i]. The front end lowers blocks
// interleaved, so a slice per block would grow 1, 2, 4, 8 in every
// function; these buffers grow once and are reused across functions and
// compiles (scratchPool), and seal copies each function into one
// exact-size slice. Nothing the module keeps points into them.
type blockScratch struct {
	code  [][]ir.Instr
	names []string
	name  []byte // newBlock's name buffer
}

// scratchPool is the front end's free list of block scratch, shared by
// every compile whichever P it runs on (a sync.Pool's per-P slots made a
// compile on another P build its scratch again). It keeps at most
// maxIdleScratch, enough for the compiles that run at once on a small
// machine.
var scratchPool struct {
	mu   sync.Mutex
	idle []*blockScratch
}

const maxIdleScratch = 8

// getScratch takes block scratch from the free list, or makes it.
func getScratch() *blockScratch {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if n := len(scratchPool.idle); n > 0 {
		sc := scratchPool.idle[n-1]
		scratchPool.idle = scratchPool.idle[:n-1]
		return sc
	}
	return new(blockScratch)
}

// putScratch returns reset block scratch to the free list, or drops it
// when the list is full.
func putScratch(sc *blockScratch) {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.idle) < maxIdleScratch {
		scratchPool.idle = append(scratchPool.idle, sc)
	}
}

// addBlock appends an empty block named name and returns its index.
func (sc *blockScratch) addBlock(name string) int32 {
	n := len(sc.code)
	if n < cap(sc.code) {
		sc.code = sc.code[:n+1] // its buffer is empty (reset)
	} else {
		sc.code = append(sc.code, nil)
	}
	sc.names = append(sc.names, name)
	return int32(n)
}

// seal moves the blocks into f: one exact-size instruction slice, each
// block a window of it whose capacity ends where the block does, so a
// later append to one block (an optimizer pass, the JIT) reallocates it
// instead of overwriting the next.
func (sc *blockScratch) seal(f *ir.Func) {
	total := 0
	for _, c := range sc.code {
		total += len(c)
	}
	all := make([]ir.Instr, total)
	blocks := make([]ir.Block, len(sc.code))
	f.Blocks = make([]*ir.Block, len(sc.code))
	s := 0
	for i, c := range sc.code {
		e := s + copy(all[s:], c)
		blocks[i] = ir.Block{Name: sc.names[i], Instrs: all[s:e:e]}
		f.Blocks[i] = &blocks[i]
		s = e
	}
	sc.reset()
}

// reset empties the buffers, dropping what they point to.
func (sc *blockScratch) reset() {
	for i, c := range sc.code {
		clear(c)
		sc.code[i] = c[:0]
	}
	clear(sc.names)
	sc.code, sc.names = sc.code[:0], sc.names[:0]
}

// fnGen generates IR for one function body.
type fnGen struct {
	cg     *codegen
	f      *ir.Func
	sig    *CFuncInfo
	sc     *blockScratch // the function's blocks until sealFunction
	curIdx int32

	scopes    []map[string]*local
	breaks    []int32
	continues []int32
	labels    map[string]int32
	gotos     []pendingGoto

	staticIdx int

	// line is the source line of the statement/expression currently being
	// lowered. emit stamps it on every instruction that was not given an
	// explicit Line, so diagnostics never see Line == 0 inside a function
	// body (calls, branches, frees, loads, spills — everything).
	line int32
}

// at advances the current source line. Positions without line info (Pos{})
// leave the last known line in place, so synthesized instructions inherit
// the nearest enclosing source location.
func (g *fnGen) at(pos Pos) {
	if pos.Line > 0 {
		g.line = int32(pos.Line)
	}
}

// stmtPos extracts a statement's source position.
func stmtPos(s Stmt) Pos {
	switch v := s.(type) {
	case *ExprStmt:
		return v.Pos
	case *DeclStmt:
		return v.Pos
	case *Block:
		return v.Pos
	case *If:
		return v.Pos
	case *While:
		return v.Pos
	case *For:
		return v.Pos
	case *Return:
		return v.Pos
	case *Break:
		return v.Pos
	case *Continue:
		return v.Pos
	case *Switch:
		return v.Pos
	case *Case:
		return v.Pos
	case *Label:
		return v.Pos
	case *Goto:
		return v.Pos
	}
	return Pos{}
}

func (cg *codegen) function(fd *FuncDecl) error {
	f := &ir.Func{Name: fd.Name, Sig: sigIR(fd.Sig), SourceFile: cg.file}
	g := &fnGen{cg: cg, f: f, sig: fd.Sig, sc: cg.scratch, labels: map[string]int32{}}
	g.sc.addBlock("entry")
	g.at(fd.Pos) // parameter spills carry the function's own line
	g.pushScope()
	// Parameters arrive in registers 0..n-1; spill each into an alloca so
	// that &param works and all locals are uniform.
	for i, pt := range fd.Sig.Params {
		f.NewReg() // reserve the incoming register
		_ = i
		_ = pt
	}
	for i, pt := range fd.Sig.Params {
		name := ""
		if i < len(fd.Sig.Names) {
			name = fd.Sig.Names[i]
		}
		if name == "" {
			continue
		}
		addr := g.alloca(pt, name)
		g.emit(ir.Instr{Op: ir.OpStore, Ty: pt.Decay().IR(), A: ir.Reg(int32(i), pt.Decay().IR()), Addr: ir.Reg(addr, ir.BytePtr)})
		g.scopes[0][name] = &local{addr: addr, ty: pt}
	}
	if err := g.stmts(fd.Body.Stmts); err != nil {
		return err
	}
	g.sealFunction()
	for _, pg := range g.gotos {
		idx, ok := g.labels[pg.name]
		if !ok {
			return cg.errAt(pg.pos, "goto to undefined label %q", pg.name)
		}
		g.f.Blocks[pg.blk].Instrs[pg.instr].Blk0 = idx
	}
	cg.m.AddFunc(f)
	return nil
}

func (g *fnGen) pushScope() { g.scopes = append(g.scopes, map[string]*local{}) }
func (g *fnGen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *fnGen) lookup(name string) *local {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if l, ok := g.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

// code returns the instructions of block i so far.
func (g *fnGen) code(i int32) *[]ir.Instr { return &g.sc.code[i] }

func (g *fnGen) terminated() bool {
	c := *g.code(g.curIdx)
	return len(c) > 0 && ir.IsTerminator(c[len(c)-1].Op)
}

func (g *fnGen) emit(in ir.Instr) {
	if in.Line == 0 {
		in.Line = g.line
	}
	if g.terminated() {
		// Unreachable code after return/break: park it in a fresh block so
		// the IR stays well formed.
		g.curIdx = g.newBlock("dead")
	}
	c := g.code(g.curIdx)
	*c = append(*c, in)
}

// newBlock appends a block named prefix.N, N its index.
func (g *fnGen) newBlock(prefix string) int32 {
	sc := g.sc
	sc.name = strconv.AppendInt(append(append(sc.name[:0], prefix...), '.'), int64(len(sc.code)), 10)
	return sc.addBlock(string(sc.name))
}

// br terminates the current block with a jump if it is not already terminated.
func (g *fnGen) br(target int32) {
	if !g.terminated() {
		c := g.code(g.curIdx)
		*c = append(*c, ir.Instr{Op: ir.OpBr, Blk0: target, Line: g.line})
	}
}

func (g *fnGen) setBlock(i int32) { g.curIdx = i }

// alloca emits an alloca for a C type and returns the address register.
func (g *fnGen) alloca(ty *CType, name string) int32 {
	dst := g.f.NewReg()
	// Allocas are emitted where they appear. The entry block would be the
	// classic place, but emitting in place keeps block-scoped lifetimes
	// simple and matches the managed model; the native machines give each
	// re-executed constant-size alloca one slot per frame instead.
	g.emit(ir.Instr{Op: ir.OpAlloca, Dst: dst, Ty: ty.IR(), Ext: &ir.Ext{Name: name, CType: ty.String()}})
	return dst
}

// sealFunction gives every unterminated block a terminator and moves the
// blocks into the function (blockScratch.seal). C permits falling off the
// end of a function; the result is the zero value (and main() returns 0
// per C99).
func (g *fnGen) sealFunction() {
	for i := range g.sc.code {
		g.curIdx = int32(i)
		if g.terminated() {
			continue
		}
		c := g.code(g.curIdx)
		switch rt := g.sig.Ret; {
		case rt.Kind == CVoid:
			*c = append(*c, ir.Instr{Op: ir.OpRet, Line: g.line})
		case rt.Kind == CFloat:
			*c = append(*c, ir.Instr{Op: ir.OpRet, Ty: rt.IR(), A: ir.ConstFloat(0, rt.IR()), Line: g.line})
		case rt.Kind == CPtr:
			*c = append(*c, ir.Instr{Op: ir.OpRet, Ty: rt.IR(), A: ir.Null(), Line: g.line})
		default:
			*c = append(*c, ir.Instr{Op: ir.OpRet, Ty: rt.IR(), A: ir.ConstInt(0, rt.IR()), Line: g.line})
		}
	}
	g.sc.seal(g.f)
}

func (g *fnGen) stmts(list []Stmt) error {
	for _, s := range list {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *fnGen) stmt(s Stmt) error {
	g.at(stmtPos(s))
	switch st := s.(type) {
	case *ExprStmt:
		if st.X == nil {
			return nil
		}
		_, err := g.expr(st.X)
		return err
	case *DeclStmt:
		for _, vd := range st.Decls {
			if err := g.localVar(vd); err != nil {
				return err
			}
		}
		return nil
	case *Block:
		g.pushScope()
		err := g.stmts(st.Stmts)
		g.popScope()
		return err
	case *If:
		cond, err := g.exprCond(st.Cond)
		if err != nil {
			return err
		}
		thenB := g.newBlock("if.then")
		endB := g.newBlock("if.end")
		elseB := endB
		if st.Else != nil {
			elseB = g.newBlock("if.else")
		}
		g.emit(ir.Instr{Op: ir.OpCondBr, A: cond, Blk0: thenB, Blk1: elseB})
		g.setBlock(thenB)
		if err := g.stmt(st.Then); err != nil {
			return err
		}
		g.br(endB)
		if st.Else != nil {
			g.setBlock(elseB)
			if err := g.stmt(st.Else); err != nil {
				return err
			}
			g.br(endB)
		}
		g.setBlock(endB)
		return nil
	case *While:
		condB := g.newBlock("loop.cond")
		bodyB := g.newBlock("loop.body")
		endB := g.newBlock("loop.end")
		if st.DoWhile {
			g.br(bodyB)
		} else {
			g.br(condB)
		}
		g.setBlock(condB)
		cond, err := g.exprCond(st.Cond)
		if err != nil {
			return err
		}
		g.emit(ir.Instr{Op: ir.OpCondBr, A: cond, Blk0: bodyB, Blk1: endB})
		g.setBlock(bodyB)
		g.breaks = append(g.breaks, endB)
		g.continues = append(g.continues, condB)
		err = g.stmt(st.Body)
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.continues = g.continues[:len(g.continues)-1]
		if err != nil {
			return err
		}
		g.br(condB)
		g.setBlock(endB)
		return nil
	case *For:
		g.pushScope()
		defer g.popScope()
		if st.Init != nil {
			if err := g.stmt(st.Init); err != nil {
				return err
			}
		}
		condB := g.newBlock("for.cond")
		bodyB := g.newBlock("for.body")
		postB := g.newBlock("for.post")
		endB := g.newBlock("for.end")
		g.br(condB)
		g.setBlock(condB)
		if st.Cond != nil {
			cond, err := g.exprCond(st.Cond)
			if err != nil {
				return err
			}
			g.emit(ir.Instr{Op: ir.OpCondBr, A: cond, Blk0: bodyB, Blk1: endB})
		} else {
			g.br(bodyB)
		}
		g.setBlock(bodyB)
		g.breaks = append(g.breaks, endB)
		g.continues = append(g.continues, postB)
		err := g.stmt(st.Body)
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.continues = g.continues[:len(g.continues)-1]
		if err != nil {
			return err
		}
		g.br(postB)
		g.setBlock(postB)
		if st.Post != nil {
			if _, err := g.expr(st.Post); err != nil {
				return err
			}
		}
		g.br(condB)
		g.setBlock(endB)
		return nil
	case *Return:
		if st.X == nil {
			g.emit(ir.Instr{Op: ir.OpRet})
			return nil
		}
		v, err := g.expr(st.X)
		if err != nil {
			return err
		}
		v, err = g.convert(v, g.sig.Ret, posOf(st.X))
		if err != nil {
			return err
		}
		g.emit(ir.Instr{Op: ir.OpRet, Ty: g.sig.Ret.IR(), A: v.op})
		return nil
	case *Break:
		if len(g.breaks) == 0 {
			return g.cg.errAt(st.Pos, "break outside loop or switch")
		}
		g.emit(ir.Instr{Op: ir.OpBr, Blk0: g.breaks[len(g.breaks)-1]})
		return nil
	case *Continue:
		if len(g.continues) == 0 {
			return g.cg.errAt(st.Pos, "continue outside loop")
		}
		g.emit(ir.Instr{Op: ir.OpBr, Blk0: g.continues[len(g.continues)-1]})
		return nil
	case *Switch:
		return g.switchStmt(st)
	case *Case:
		return g.cg.errAt(st.Pos, "case label outside switch")
	case *Label:
		idx, ok := g.labels[st.Name]
		if !ok {
			idx = g.newBlock("label." + st.Name)
			g.labels[st.Name] = idx
		}
		g.br(idx)
		g.setBlock(idx)
		return nil
	case *Goto:
		idx, ok := g.labels[st.Name]
		if ok {
			g.emit(ir.Instr{Op: ir.OpBr, Blk0: idx})
			return nil
		}
		// Forward goto: patch after the body is generated.
		g.emit(ir.Instr{Op: ir.OpBr, Blk0: 0})
		g.gotos = append(g.gotos, pendingGoto{blk: g.curIdx, instr: len(*g.code(g.curIdx)) - 1, name: st.Name, pos: st.Pos})
		return nil
	}
	return fmt.Errorf("cc: unhandled statement %T", s)
}

func (g *fnGen) switchStmt(st *Switch) error {
	scrut, err := g.expr(st.X)
	if err != nil {
		return err
	}
	scrut, err = g.convert(scrut, tyLong, st.Pos)
	if err != nil {
		return err
	}
	dispatch := g.curIdx
	endB := g.newBlock("sw.end")
	var cases []ir.SwitchCase
	defaultB := int32(-1)

	g.breaks = append(g.breaks, endB)
	defer func() { g.breaks = g.breaks[:len(g.breaks)-1] }()
	g.pushScope()
	defer g.popScope()

	// Start in a dead block so statements before the first case vanish.
	g.setBlock(g.newBlock("sw.pre"))
	for _, s := range st.Body.Stmts {
		if c, ok := s.(*Case); ok {
			nb := g.newBlock("sw.case")
			g.br(nb) // fall-through from the previous case body
			g.setBlock(nb)
			if c.IsDefault {
				defaultB = nb
				continue
			}
			v, err := g.constInt(c.V)
			if err != nil {
				return g.cg.errAt(c.Pos, "case label is not constant: %v", err)
			}
			cases = append(cases, ir.SwitchCase{Val: v, Blk: nb})
			continue
		}
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	g.br(endB)
	if defaultB < 0 {
		defaultB = endB
	}
	// Seal any dangling pre-case block.
	c := g.code(dispatch)
	*c = append(*c,
		ir.Instr{Op: ir.OpSwitch, Ty: ir.I64, A: scrut.op, Blk0: defaultB, Ext: &ir.Ext{Cases: cases}, Line: int32(st.Pos.Line)})
	g.setBlock(endB)
	return nil
}

func (g *fnGen) constInt(e Expr) (int64, error) {
	p := &Parser{}
	return p.evalConst(e)
}

// localVar emits a local variable declaration with optional initializer.
func (g *fnGen) localVar(vd *VarDecl) error {
	if vd.Static {
		// Function-scope statics become module globals with mangled names.
		g.staticIdx++
		mangled := fmt.Sprintf("%s.static.%s.%d", g.f.Name, vd.Name, g.staticIdx)
		gv := &ir.Global{Name: mangled, Ty: vd.Ty.IR(), IsConst: vd.Const, CType: vd.Ty.String()}
		if vd.Init != nil {
			c, err := g.cg.constInit(vd.Init, vd.Ty)
			if err != nil {
				return err
			}
			gv.Init = c
		}
		if err := g.cg.m.AddGlobal(gv); err != nil {
			return err
		}
		g.cg.globals.Set(mangled, vd.Ty)
		g.scopes[len(g.scopes)-1][vd.Name] = &local{addr: g.emitGlobalAddr(mangled), ty: vd.Ty}
		return nil
	}
	if vd.Ty.Kind == CArray && vd.Ty.Len < 0 {
		return g.cg.errAt(vd.Pos, "array %q has unknown size", vd.Name)
	}
	addr := g.alloca(vd.Ty, vd.Name)
	g.scopes[len(g.scopes)-1][vd.Name] = &local{addr: addr, ty: vd.Ty}
	if vd.Init == nil {
		return nil
	}
	return g.emitInit(ir.Reg(addr, ir.BytePtr), vd.Ty, vd.Init, vd.Pos)
}

// emitGlobalAddr materializes a global's address into a register so scope
// entries can treat statics like allocas.
func (g *fnGen) emitGlobalAddr(name string) int32 {
	dst := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, Addr: ir.GlobalRef(name), Stride: 0, A: ir.ConstInt(0, ir.I64)})
	return dst
}

// emitInit stores an initializer (scalar, string, or brace list) to addr.
func (g *fnGen) emitInit(addr ir.Operand, ty *CType, init Expr, pos Pos) error {
	switch iv := init.(type) {
	case *InitList:
		switch ty.Kind {
		case CArray:
			if err := g.cg.checkArrayInit(ty, len(iv.Items), pos); err != nil {
				return err
			}
			if int64(len(iv.Items)) < ty.Len {
				g.emitZeroFill(addr, ty.Size())
			}
			for i, item := range iv.Items {
				elemAddr := g.f.NewReg()
				g.emit(ir.Instr{Op: ir.OpGEP, Dst: elemAddr, Addr: addr, Stride: ty.Elem.Size(), A: ir.ConstInt(int64(i), ir.I64)})
				if err := g.emitInit(ir.Reg(elemAddr, ir.BytePtr), ty.Elem, item, pos); err != nil {
					return err
				}
			}
			return nil
		case CStruct:
			if len(iv.Items) < len(ty.Struct.Fields) {
				g.emitZeroFill(addr, ty.Size())
			}
			for i, item := range iv.Items {
				if i >= len(ty.Struct.Fields) {
					return g.cg.errAt(pos, "too many initializers")
				}
				fAddr := g.f.NewReg()
				g.emit(ir.Instr{Op: ir.OpGEP, Dst: fAddr, Addr: addr, Stride: 1, A: ir.ConstInt(ty.FieldOffset(i), ir.I64)})
				if err := g.emitInit(ir.Reg(fAddr, ir.BytePtr), ty.Struct.Fields[i].Ty, item, pos); err != nil {
					return err
				}
			}
			return nil
		default:
			if len(iv.Items) == 1 {
				return g.emitInit(addr, ty, iv.Items[0], pos)
			}
			return g.cg.errAt(pos, "invalid initializer for %s", ty)
		}
	case *StrLit:
		if ty.Kind == CArray {
			data, err := g.cg.strInit(ty, iv.S, pos)
			if err != nil {
				return err
			}
			if int64(len(data)) < ty.Len {
				g.emitZeroFill(addr, ty.Size())
			}
			for i, b := range data {
				bAddr := g.f.NewReg()
				g.emit(ir.Instr{Op: ir.OpGEP, Dst: bAddr, Addr: addr, Stride: 1, A: ir.ConstInt(int64(i), ir.I64)})
				g.emit(ir.Instr{Op: ir.OpStore, Ty: ir.I8, A: ir.ConstInt(int64(b), ir.I8), Addr: ir.Reg(bAddr, ir.BytePtr)})
			}
			return nil
		}
	}
	// Scalar initializer.
	v, err := g.expr(init)
	if err != nil {
		return err
	}
	if ty.Kind == CStruct {
		return g.cg.errAt(pos, "struct initialization from expression requires assignment")
	}
	v, err = g.convert(v, ty, pos)
	if err != nil {
		return err
	}
	g.emit(ir.Instr{Op: ir.OpStore, Ty: ty.Decay().IR(), A: v.op, Addr: addr})
	return nil
}

func (g *fnGen) emitZeroFill(addr ir.Operand, size int64) {
	g.emit(ir.Instr{
		Op: ir.OpCall, Dst: -1, Ty: ir.Void, Ext: &ir.Ext{
			Callee: ir.FuncRef(BuiltinMemset),
			Args: []ir.Operand{
				withTy(addr, ir.BytePtr),
				withTy(ir.ConstInt(0, ir.I32), ir.I32),
				withTy(ir.ConstInt(size, ir.I64), ir.I64),
			},
			FixedArgs: 3,
		},
	})
	g.cg.ensureBuiltin(BuiltinMemset, &ir.FuncType{Ret: ir.Void, Params: []ir.Type{ir.BytePtr, ir.I32, ir.I64}})
}

func withTy(o ir.Operand, ty ir.Type) ir.Operand {
	o.Ty = ty
	return o
}

func (cg *codegen) ensureBuiltin(name string, sig *ir.FuncType) {
	if cg.m.Func(name) == nil {
		cg.m.AddFunc(&ir.Func{Name: name, Sig: sig, IsDecl: true})
	}
}

func posOf(e Expr) Pos {
	switch v := e.(type) {
	case *Ident:
		return v.Pos
	case *IntLit:
		return v.Pos
	case *FloatLit:
		return v.Pos
	case *StrLit:
		return v.Pos
	case *Unary:
		return v.Pos
	case *Binary:
		return v.Pos
	case *Assign:
		return v.Pos
	case *Cond:
		return v.Pos
	case *Call:
		return v.Pos
	case *Index:
		return v.Pos
	case *Member:
		return v.Pos
	case *CastExpr:
		return v.Pos
	case *SizeofExpr:
		return v.Pos
	case *InitList:
		return v.Pos
	}
	return Pos{}
}
