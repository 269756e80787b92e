package cc

import (
	"fmt"
	"maps"

	"repro/internal/ir"
	"repro/internal/overlay"
)

// Options configures compilation.
//
// The front end never optimizes: even the backend constant-global folding
// the paper caught Clang doing at -O0 (Fig. 13) lives in internal/opt, so
// the managed engine always sees the program's original accesses.
type Options struct {
	// Predefined adds extra predefined macros (name -> replacement).
	Predefined map[string]string
}

// Predefined returns the compiler's built-in macro table merged with extra
// definitions. It is the macro environment Compile hands to Preprocess, and
// staged drivers (internal/pipeline) use it to run the preprocessor stage
// in isolation.
func Predefined(extra map[string]string) map[string]string {
	predef := map[string]string{
		"__SULONG__": "1",
		"NULL":       "((void*)0)",
	}
	for k, v := range extra {
		predef[k] = v
	}
	return predef
}

// Compile preprocesses, parses, and lowers one C file to an SIR module.
// files maps include names to contents and must contain mainFile.
//
// It is the one-shot composition of the staged front end, a Unit continuing
// the empty prefix: Preprocess → Parse → Lower → ir.Verify.
func Compile(mainFile string, files map[string]string, opts Options) (*ir.Module, error) {
	pre, err := NewPrefix(mainFile, Predefined(opts.Predefined))
	if err != nil {
		return nil, err
	}
	u := pre.Continue(lookupIn(files))
	if err := u.Preprocess(mainFile); err != nil {
		return nil, err
	}
	if err := u.Parse(); err != nil {
		return nil, err
	}
	m, err := u.Lower()
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("cc: internal error: generated invalid IR: %w", err)
	}
	return m, nil
}

// codegen lowers a Program to an ir.Module.
type codegen struct {
	m       *ir.Module
	globals *overlay.Map[string, *CType] // global variables
	funcs   *overlay.Map[string, *CFuncInfo]
	strIdx  int
	file    string
	scratch *blockScratch // the block storage functions lower into (scratchPool)

	// preRefs (the prefix's, shared) and refs (this unit's) hold the names
	// that code declared so far mentions.
	preRefs, refs map[string]bool
}

func (cg *codegen) errAt(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", pos.File, pos.Line, fmt.Sprintf(format, args...))
}

func (cg *codegen) program(prog *Program) error {
	// Pass 1: declare all functions and globals so forward references work.
	// Bodies are lowered against the finished tables, except a prefix's:
	// libc's bodies were lowered against libc's declarations before the
	// unit continuing it began. So a name that code declared earlier
	// mentions keeps what it declares: it may not be redeclared as another
	// kind of symbol or with another prototype. Any other redeclaration is
	// accepted, the last prototype winning.
	for _, d := range prog.Decls {
		switch decl := d.(type) {
		case *FuncDecl:
			if err := cg.declareFunc(decl.Name, decl.Sig, decl.Pos); err != nil {
				return err
			}
			if cg.m.Func(decl.Name) == nil {
				cg.m.AddFunc(&ir.Func{Name: decl.Name, Sig: sigIR(decl.Sig), IsDecl: true})
			}
			if decl.Body != nil {
				mentions(cg.refs, decl.Body)
			}
		case *VarDecl:
			if decl.Ty.Kind == CFunc {
				if err := cg.declareFunc(decl.Name, decl.Ty.Fn, decl.Pos); err != nil {
					return err
				}
				continue
			}
			if _, isFunc := cg.funcs.Get(decl.Name); isFunc && cg.mentioned(decl.Name) {
				return cg.errAt(decl.Pos, "%q redeclared as a different kind of symbol", decl.Name)
			}
			if _, exists := cg.globals.Get(decl.Name); !exists {
				cg.globals.Set(decl.Name, decl.Ty)
			}
			mentions(cg.refs, decl.Init)
		}
	}
	// Pass 2: emit globals (with initializers) and function bodies.
	for _, d := range prog.Decls {
		switch decl := d.(type) {
		case *VarDecl:
			if decl.Ty.Kind == CFunc || decl.Extern && decl.Init == nil {
				continue
			}
			if err := cg.globalVar(decl); err != nil {
				return err
			}
		case *FuncDecl:
			if decl.Body == nil {
				continue
			}
			if err := cg.function(decl); err != nil {
				return err
			}
		}
	}
	return nil
}

// declareFunc enters a function declaration into the function table. A
// declaration without a prototype adds nothing to an earlier one, and one
// with a prototype replaces an earlier unprototyped one.
func (cg *codegen) declareFunc(name string, sig *CFuncInfo, pos Pos) error {
	prev, declared := cg.funcs.Get(name)
	if cg.mentioned(name) {
		if _, isGlobal := cg.globals.Get(name); isGlobal {
			return cg.errAt(pos, "%q redeclared as a different kind of symbol", name)
		}
		if declared && !prev.Unprototyped && !sig.Unprototyped && !sameSig(prev, sig) {
			return cg.errAt(pos, "conflicting types for %q", name)
		}
	}
	if !declared || !sig.Unprototyped {
		cg.funcs.Set(name, sig)
	}
	return nil
}

// mentioned reports whether code declared so far mentions name.
func (cg *codegen) mentioned(name string) bool { return cg.preRefs[name] || cg.refs[name] }

// mentions adds every identifier that n, an expression or statement, uses to
// refs. It over-approximates the globals and functions n references: a
// mention may name a local.
func mentions(refs map[string]bool, n any) {
	switch n := n.(type) {
	case *Ident:
		refs[n.Name] = true
	case *Unary:
		mentions(refs, n.X)
	case *Binary:
		mentions(refs, n.X)
		mentions(refs, n.Y)
	case *Assign:
		mentions(refs, n.L)
		mentions(refs, n.R)
	case *Cond:
		mentions(refs, n.C)
		mentions(refs, n.T)
		mentions(refs, n.F)
	case *Call:
		mentions(refs, n.Fn)
		for _, a := range n.Args {
			mentions(refs, a)
		}
	case *Index:
		mentions(refs, n.X)
		mentions(refs, n.I)
	case *Member:
		mentions(refs, n.X)
	case *CastExpr:
		mentions(refs, n.X)
	case *SizeofExpr:
		mentions(refs, n.X)
	case *InitList:
		for _, it := range n.Items {
			mentions(refs, it)
		}
	case *ExprStmt:
		mentions(refs, n.X)
	case *DeclStmt:
		for _, vd := range n.Decls {
			mentions(refs, vd.Init)
		}
	case *Block:
		for _, s := range n.Stmts {
			mentions(refs, s)
		}
	case *If:
		mentions(refs, n.Cond)
		mentions(refs, n.Then)
		mentions(refs, n.Else)
	case *While:
		mentions(refs, n.Cond)
		mentions(refs, n.Body)
	case *For:
		mentions(refs, n.Init)
		mentions(refs, n.Cond)
		mentions(refs, n.Post)
		mentions(refs, n.Body)
	case *Return:
		mentions(refs, n.X)
	case *Switch:
		mentions(refs, n.X)
		mentions(refs, n.Body)
	case *Case:
		mentions(refs, n.V)
	}
}

func sigIR(sig *CFuncInfo) *ir.FuncType {
	ft := &ir.FuncType{Ret: sig.Ret.IR(), Variadic: sig.Variadic}
	for _, pt := range sig.Params {
		ft.Params = append(ft.Params, pt.Decay().IR())
	}
	return ft
}

func (cg *codegen) globalVar(vd *VarDecl) error {
	if cg.m.Global(vd.Name) != nil {
		return nil // tentative redefinition
	}
	cg.globals.Set(vd.Name, vd.Ty)
	g := &ir.Global{Name: vd.Name, Ty: vd.Ty.IR(), IsConst: vd.Const, CType: vd.Ty.String()}
	if vd.Init != nil {
		c, err := cg.constInit(vd.Init, vd.Ty)
		if err != nil {
			return err
		}
		g.Init = c
	}
	return cg.m.AddGlobal(g)
}

// internString creates (or reuses) an anonymous const global for a string
// literal and returns its name.
func (cg *codegen) internString(s string) string {
	data := append([]byte(s), 0)
	name := fmt.Sprintf(".str.%d", cg.strIdx)
	cg.strIdx++
	g := &ir.Global{
		Name:    name,
		Ty:      &ir.ArrayType{Elem: ir.I8, Len: int64(len(data))},
		Init:    ir.ConstBytes{Data: data},
		IsConst: true,
	}
	if err := cg.m.AddGlobal(g); err != nil {
		panic("cc: string intern collision: " + err.Error())
	}
	return name
}

// constInit folds a global initializer into an ir.Const.
func (cg *codegen) constInit(e Expr, ty *CType) (ir.Const, error) {
	switch v := e.(type) {
	case *InitList:
		switch ty.Kind {
		case CArray:
			if err := cg.checkArrayInit(ty, len(v.Items), v.Pos); err != nil {
				return nil, err
			}
			var elems []ir.Const
			for _, item := range v.Items {
				c, err := cg.constInit(item, ty.Elem)
				if err != nil {
					return nil, err
				}
				elems = append(elems, c)
			}
			return ir.ConstArrayVal{Ty: ty.IR().(*ir.ArrayType), Elems: elems}, nil
		case CStruct:
			var fields []ir.Const
			for i, item := range v.Items {
				if i >= len(ty.Struct.Fields) {
					return nil, cg.errAt(v.Pos, "too many initializers for %s", ty)
				}
				c, err := cg.constInit(item, ty.Struct.Fields[i].Ty)
				if err != nil {
					return nil, err
				}
				fields = append(fields, c)
			}
			return ir.ConstStructVal{Ty: ty.IR().(*ir.StructType), Fields: fields}, nil
		default:
			if len(v.Items) == 1 {
				return cg.constInit(v.Items[0], ty)
			}
			return nil, cg.errAt(v.Pos, "invalid brace initializer for %s", ty)
		}
	case *StrLit:
		if ty.Kind == CArray {
			data, err := cg.strInit(ty, v.S, v.Pos)
			if err != nil {
				return nil, err
			}
			return ir.ConstBytes{Data: data}, nil
		}
		return ir.ConstGlobalRef{Sym: cg.internString(v.S)}, nil
	}
	// Scalar constant expression.
	cv, err := cg.evalConstExpr(e)
	if err != nil {
		return nil, err
	}
	switch {
	case cv.isFloat && ty.Kind == CFloat:
		return ir.ConstFloatVal{Ty: ty.IR(), V: cv.f}, nil
	case cv.isFloat && ty.Kind == CInt:
		return ir.ConstIntVal{Ty: ty.IR(), V: int64(cv.f)}, nil
	case cv.sym != "":
		if cv.isFunc {
			return ir.ConstFuncRef{Sym: cv.sym}, nil
		}
		return ir.ConstGlobalRef{Sym: cv.sym, Off: cv.i}, nil
	case ty.Kind == CFloat:
		return ir.ConstFloatVal{Ty: ty.IR(), V: float64(cv.i)}, nil
	default:
		return ir.ConstIntVal{Ty: ty.IR(), V: truncToBits(cv.i, bitsOf(ty), isUnsigned(ty))}, nil
	}
}

// checkArrayInit is the one initializer-length rule for arrays, global and
// local (C11 6.7.9p2): an initializer list of n items must fit in ty. The
// parser completes every `T a[] = ...`, so the only array still unsized
// here is a flexible array member, which has no room for initializers.
func (cg *codegen) checkArrayInit(ty *CType, n int, pos Pos) error {
	if int64(n) > initRoom(ty) {
		return cg.errAt(pos, "too many initializers for %s", ty)
	}
	return nil
}

// strInit returns the bytes string literal s stores into array type ty. The
// characters must fit; the terminating NUL is dropped when they fill ty
// exactly (C11 6.7.9p14): `char t[2] = "ab"` is standard C, and the source
// of several corpus bugs.
func (cg *codegen) strInit(ty *CType, s string, pos Pos) ([]byte, error) {
	room := initRoom(ty)
	if int64(len(s)) > room {
		return nil, cg.errAt(pos, "initializer string too long for %s", ty)
	}
	data := append([]byte(s), 0)
	return data[:min(int64(len(data)), room)], nil
}

// initRoom is the number of elements an initializer may give array type ty:
// its length, or none for a flexible array member.
func initRoom(ty *CType) int64 {
	return max(ty.Len, 0)
}

func bitsOf(ty *CType) int {
	if ty.Kind == CInt {
		return ty.Bits
	}
	return 64
}

func isUnsigned(ty *CType) bool { return ty.Kind == CInt && ty.Unsigned || ty.Kind == CPtr }

// constVal is a folded compile-time value.
type constVal struct {
	i       int64
	f       float64
	isFloat bool
	sym     string // address of global (+i as offset) or function
	isFunc  bool
}

// evalConstExpr folds initializer expressions: literals, arithmetic, sizeof,
// casts, &global, string literals, and global array designators.
func (cg *codegen) evalConstExpr(e Expr) (constVal, error) {
	switch v := e.(type) {
	case *IntLit:
		return constVal{i: v.V}, nil
	case *FloatLit:
		return constVal{f: v.V, isFloat: true}, nil
	case *StrLit:
		return constVal{sym: cg.internString(v.S)}, nil
	case *SizeofExpr:
		if v.Ty != nil {
			return constVal{i: v.Ty.Size()}, nil
		}
		return constVal{}, cg.errAt(v.Pos, "sizeof(expr) not supported in global initializers")
	case *Ident:
		if ty, ok := cg.globals.Get(v.Name); ok && ty.Kind == CArray {
			return constVal{sym: v.Name}, nil // array decays to its address
		}
		if _, ok := cg.funcs.Get(v.Name); ok {
			return constVal{sym: v.Name, isFunc: true}, nil
		}
		return constVal{}, cg.errAt(v.Pos, "initializer element %q is not constant", v.Name)
	case *Unary:
		if v.Op == "&" {
			switch x := v.X.(type) {
			case *Ident:
				if _, ok := cg.globals.Get(x.Name); ok {
					return constVal{sym: x.Name}, nil
				}
				if _, ok := cg.funcs.Get(x.Name); ok {
					return constVal{sym: x.Name, isFunc: true}, nil
				}
			case *Index:
				base, err := cg.evalConstExpr(&Unary{Op: "&", X: x.X, Pos: v.Pos})
				if err != nil {
					return constVal{}, err
				}
				idx, err := cg.evalConstExpr(x.I)
				if err != nil {
					return constVal{}, err
				}
				if ty, ok := cg.globals.Get(base.sym); ok && ty.Kind == CArray {
					base.i += idx.i * ty.Elem.Size()
					return base, nil
				}
			}
			return constVal{}, cg.errAt(v.Pos, "cannot take constant address")
		}
		x, err := cg.evalConstExpr(v.X)
		if err != nil {
			return constVal{}, err
		}
		switch v.Op {
		case "-":
			if x.isFloat {
				return constVal{f: -x.f, isFloat: true}, nil
			}
			return constVal{i: -x.i}, nil
		case "+":
			return x, nil
		case "~":
			return constVal{i: ^x.i}, nil
		case "!":
			return constVal{i: b2i(x.i == 0 && x.f == 0)}, nil
		}
	case *Binary:
		x, err := cg.evalConstExpr(v.X)
		if err != nil {
			return constVal{}, err
		}
		y, err := cg.evalConstExpr(v.Y)
		if err != nil {
			return constVal{}, err
		}
		if x.isFloat || y.isFloat {
			xf, yf := x.f, y.f
			if !x.isFloat {
				xf = float64(x.i)
			}
			if !y.isFloat {
				yf = float64(y.i)
			}
			switch v.Op {
			case "+":
				return constVal{f: xf + yf, isFloat: true}, nil
			case "-":
				return constVal{f: xf - yf, isFloat: true}, nil
			case "*":
				return constVal{f: xf * yf, isFloat: true}, nil
			case "/":
				return constVal{f: xf / yf, isFloat: true}, nil
			}
			return constVal{}, cg.errAt(v.Pos, "bad constant float op %q", v.Op)
		}
		p := &Parser{}
		r, err := p.evalConst(&Binary{Op: v.Op, X: &IntLit{V: x.i}, Y: &IntLit{V: y.i}})
		if err != nil {
			return constVal{}, err
		}
		if x.sym != "" { // pointer arithmetic on a global address
			return constVal{sym: x.sym, i: r}, nil
		}
		return constVal{i: r}, nil
	case *CastExpr:
		x, err := cg.evalConstExpr(v.X)
		if err != nil {
			return constVal{}, err
		}
		if v.Ty.Kind == CInt && x.isFloat {
			return constVal{i: int64(x.f)}, nil
		}
		if v.Ty.Kind == CFloat && !x.isFloat {
			return constVal{f: float64(x.i), isFloat: true}, nil
		}
		return x, nil
	}
	return constVal{}, fmt.Errorf("cc: initializer expression is not constant")
}

// collectStructs sets m.Structs to every named struct type reachable from
// m's globals and instructions, so the printed SIR is self-contained and
// re-parses (the textual format declares structs up front). Where two
// reachable structs share a name, the one the walk meets last wins and
// collectStructs reports false; otherwise it reports true.
//
// m extends base (ir.Module.Extend), whose Structs this walk made, reporting
// baseDistinct. If base's names were distinct and m keeps every one of
// base's functions, what base's globals and functions reach is in
// base.Structs, so only what m added is walked, from a copy of it. That
// gives the whole walk's table unless a struct the additions reach shares a
// name with another: then which one wins depends on the order in which the
// whole walk meets them, and the whole module is walked.
func collectStructs(m, base *ir.Module, baseDistinct bool) bool {
	if baseDistinct && keepsFuncs(m, base) {
		if structs, ok := walkStructs(m, maps.Clone(base.Structs), len(base.Globals), len(base.Funcs)); ok {
			m.Structs = structs
			return true
		}
	}
	structs, distinct := walkStructs(m, map[string]*ir.StructType{}, 0, 0)
	m.Structs = structs
	return distinct
}

// keepsFuncs reports whether every function slot of base holds the same
// function in m.
func keepsFuncs(m, base *ir.Module) bool {
	for i, f := range base.Funcs {
		if m.Funcs[i] != f {
			return false
		}
	}
	return true
}

// walkStructs adds to structs, in walk order, the named structs reachable
// from m's globals from index globals on and functions from index funcs on,
// a name's last struct winning. A struct already in structs under its name
// is not walked again. It reports whether no name met two structs.
func walkStructs(m *ir.Module, structs map[string]*ir.StructType, globals, funcs int) (map[string]*ir.StructType, bool) {
	distinct := true
	seen := map[*ir.StructType]bool{}
	var walk func(t ir.Type)
	walk = func(t ir.Type) {
		switch v := t.(type) {
		case *ir.StructType:
			if v == nil || seen[v] {
				return
			}
			seen[v] = true
			if v.Name != "" {
				switch prev, ok := structs[v.Name]; {
				case prev == v:
					return
				case ok:
					distinct = false
				}
				structs[v.Name] = v
			}
			for _, f := range v.Fields {
				walk(f.Ty)
			}
		case *ir.ArrayType:
			walk(v.Elem)
		case *ir.PtrType:
			if v.Elem != nil {
				walk(v.Elem)
			}
		case *ir.FuncType:
			walk(v.Ret)
			for _, p := range v.Params {
				walk(p)
			}
		}
	}
	for _, g := range m.Globals[globals:] {
		walk(g.Ty)
	}
	for _, f := range m.Funcs[funcs:] {
		if f.Sig != nil {
			walk(f.Sig)
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Ty != nil {
					walk(b.Instrs[i].Ty)
				}
				if b.Instrs[i].Ty2 != nil {
					walk(b.Instrs[i].Ty2)
				}
			}
		}
	}
	return structs, distinct
}
