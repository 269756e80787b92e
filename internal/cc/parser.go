package cc

import (
	"fmt"

	"repro/internal/overlay"
)

// Parser turns a preprocessed token stream into an AST. It tracks typedefs,
// struct/union tags, and enum constants, which C needs to disambiguate
// declarations from expressions. The tables overlay a prefix's (Unit.Parse).
type Parser struct {
	toks  []Token
	pos   int
	files []string // the file table toks' File indexes

	typedefs *overlay.Map[string, *CType]
	structs  *overlay.Map[string, *CStructInfo]
	unions   *overlay.Map[string, *CStructInfo]
	enums    *overlay.Map[string, int64]
}

// program parses declarations up to the end of the token stream.
func (p *Parser) program() (*Program, error) {
	prog := &Program{}
	for !p.atEOF() {
		decls, err := p.externalDecl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, decls...)
	}
	return prog, nil
}

func (p *Parser) tok() *Token { return &p.toks[p.pos] }

func (p *Parser) atEOF() bool { return p.tok().Kind == TokEOF }

func (p *Parser) pdesc() string {
	t := p.tok()
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokStrLit:
		return fmt.Sprintf("%q", t.Str())
	case TokIntLit:
		return fmt.Sprintf("%d", t.Int)
	case TokFloatLit:
		return fmt.Sprintf("%g", t.Flt())
	case TokCharLit:
		return fmt.Sprintf("'%c'", rune(t.Int))
	}
	return fmt.Sprintf("%q", t.Text)
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.tok()
	return fmt.Errorf("%s:%d: %s", p.files[t.File], t.Line, fmt.Sprintf(format, args...))
}

func (p *Parser) here() Pos { return Pos{File: p.files[p.tok().File], Line: int(p.tok().Line)} }

func (p *Parser) isPunct(s string) bool {
	t := p.tok()
	return t.Kind == TokPunct && t.Text == s
}

func (p *Parser) isKw(s string) bool {
	t := p.tok()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *Parser) accept(s string) bool {
	if p.isPunct(s) || p.isKw(s) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(s string) error {
	if !p.accept(s) {
		return p.errf("expected %q, found %s", s, p.pdesc())
	}
	return nil
}

func (p *Parser) ident() (string, error) {
	t := p.tok()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", p.pdesc())
	}
	p.pos++
	return t.Text, nil
}

// specKeywords are the keywords that can begin a declaration.
var specKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"struct": true, "union": true, "enum": true, "const": true,
	"volatile": true, "static": true, "extern": true, "typedef": true,
	"register": true, "inline": true, "auto": true,
}

// startsDecl reports whether the current token begins a declaration.
func (p *Parser) startsDecl() bool {
	t := p.tok()
	if t.Kind == TokKeyword && specKeywords[t.Text] {
		return true
	}
	if t.Kind == TokIdent {
		_, ok := p.typedefs.Get(t.Text)
		return ok
	}
	return false
}

// storage carries declaration storage-class flags.
type storage struct {
	typedef bool
	static  bool
	extern  bool
	isConst bool
}

// declSpecs parses declaration specifiers into a base type.
func (p *Parser) declSpecs() (*CType, storage, error) {
	var st storage
	var base *CType
	seenInt := false
	longCount := 0
	short := false
	var signed, unsigned bool
	for {
		t := p.tok()
		if t.Kind == TokIdent {
			if td, ok := p.typedefs.Get(t.Text); ok && base == nil && !seenInt && longCount == 0 && !short && !signed && !unsigned {
				p.pos++
				base = td
				continue
			}
			break
		}
		if t.Kind != TokKeyword {
			break
		}
		switch t.Text {
		case "typedef":
			st.typedef = true
		case "static":
			st.static = true
		case "extern":
			st.extern = true
		case "const":
			st.isConst = true
		case "volatile", "register", "inline", "auto":
			// accepted and ignored
		case "void":
			base = tyVoid
		case "char":
			base = tyChar
		case "short":
			short = true
		case "int":
			seenInt = true
		case "long":
			longCount++
		case "float":
			base = tyFloat
		case "double":
			base = tyDouble
		case "signed":
			signed = true
		case "unsigned":
			unsigned = true
		case "struct", "union":
			p.pos++
			ty, err := p.structSpec(t.Text == "union")
			if err != nil {
				return nil, st, err
			}
			base = ty
			continue
		case "enum":
			p.pos++
			if err := p.enumSpec(); err != nil {
				return nil, st, err
			}
			base = tyInt
			continue
		default:
			goto done
		}
		p.pos++
	}
done:
	if base == nil || seenInt || short || longCount > 0 || unsigned || signed {
		switch {
		case short:
			base = pick(unsigned, tyUShort, tyShort)
		case longCount > 0:
			base = pick(unsigned, tyULong, tyLong)
		case base == tyChar || base != nil && base.Kind == CInt && base.Bits == 8:
			base = pick(unsigned, tyUChar, tyChar)
		case base == nil || seenInt:
			base = pick(unsigned, tyUInt, tyInt)
		}
	}
	if base == nil {
		return nil, st, p.errf("expected type")
	}
	return base, st, nil
}

func pick(c bool, a, b *CType) *CType {
	if c {
		return a
	}
	return b
}

// structSpec parses "struct tag", "struct tag {...}", or "struct {...}".
func (p *Parser) structSpec(isUnion bool) (*CType, error) {
	tags := p.structs
	if isUnion {
		tags = p.unions
	}
	name := ""
	if p.tok().Kind == TokIdent {
		name = p.tok().Text
		p.pos++
	}
	var info *CStructInfo
	if name != "" {
		if existing, ok := tags.Get(name); ok {
			info = existing
		} else {
			info = &CStructInfo{Name: name, IsUnion: isUnion}
			tags.Set(name, info)
		}
	} else {
		info = &CStructInfo{IsUnion: isUnion}
	}
	if p.accept("{") {
		if info.Complete || info.frozen {
			// A definition of a defined tag declares a new struct: what was
			// declared against the old definition keeps it, and a frozen
			// struct (a shared Prefix's) is never written.
			info = &CStructInfo{Name: name, IsUnion: isUnion}
			if name != "" {
				tags.Set(name, info)
			}
		}
		for !p.isPunct("}") {
			base, _, err := p.declSpecs()
			if err != nil {
				return nil, err
			}
			for {
				name, ty, err := p.declarator(base)
				if err != nil {
					return nil, err
				}
				if name == "" {
					return nil, p.errf("struct member requires a name")
				}
				if !ty.completeMember() {
					return nil, p.errf("member %q has incomplete type %s", name, ty)
				}
				info.Fields = append(info.Fields, CField{Name: name, Ty: ty})
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		p.pos++ // }
		info.Complete = true
	}
	return &CType{Kind: CStruct, Struct: info}, nil
}

// enumSpec parses an enum specifier, registering constants.
func (p *Parser) enumSpec() error {
	if p.tok().Kind == TokIdent {
		p.pos++ // tag, unused
	}
	if !p.accept("{") {
		return nil
	}
	next := int64(0)
	for !p.isPunct("}") {
		name, err := p.ident()
		if err != nil {
			return err
		}
		if p.accept("=") {
			e, err := p.condExpr()
			if err != nil {
				return err
			}
			v, err := p.evalConst(e)
			if err != nil {
				return err
			}
			next = v
		}
		p.enums.Set(name, next)
		next++
		if !p.accept(",") {
			break
		}
	}
	return p.expect("}")
}

// declarator parses one declarator and returns the declared name and type.
// abstract declarators (no name) return "".
func (p *Parser) declarator(base *CType) (string, *CType, error) {
	// pointer prefix
	for p.accept("*") {
		for p.isKw("const") || p.isKw("volatile") {
			p.pos++
		}
		base = ptrTo(base)
	}
	// direct declarator
	var name string
	var inner func(*CType) (*CType, error) // deferred parenthesized declarator
	switch {
	case p.tok().Kind == TokIdent:
		name = p.tok().Text
		p.pos++
	case p.isPunct("("):
		// Could be a parenthesized declarator "(*f)(...)" or a parameter
		// list for an abstract declarator. Heuristic: a declarator follows
		// if the next token is '*', an identifier, or '('.
		save := p.pos
		p.pos++
		t := p.tok()
		if t.Kind == TokIdent && !p.isTypedef(t.Text) || t.Kind == TokPunct && (t.Text == "*" || t.Text == "(") {
			innerToks := p.pos
			// Parse the inner declarator later against the completed suffix type.
			depth := 1
			for depth > 0 {
				if p.atEOF() {
					return "", nil, p.errf("unterminated declarator")
				}
				if p.isPunct("(") {
					depth++
				}
				if p.isPunct(")") {
					depth--
				}
				p.pos++
			}
			endInner := p.pos - 1
			inner = func(t *CType) (*CType, error) {
				sub := &Parser{toks: append(append([]Token{}, p.toks[innerToks:endInner]...), Token{Kind: TokEOF}), files: p.files,
					typedefs: p.typedefs, structs: p.structs, unions: p.unions, enums: p.enums}
				n, ty, err := sub.declarator(t)
				if err != nil {
					return nil, err
				}
				name = n
				return ty, nil
			}
		} else {
			p.pos = save
		}
	}
	// suffixes
	ty, err := p.declSuffix(base)
	if err != nil {
		return "", nil, err
	}
	if inner != nil {
		ty, err = inner(ty)
		if err != nil {
			return "", nil, err
		}
	}
	return name, ty, nil
}

// declSuffix parses array and function suffixes, applied right-to-left.
func (p *Parser) declSuffix(base *CType) (*CType, error) {
	switch {
	case p.accept("["):
		n := int64(-1)
		if !p.isPunct("]") {
			e, err := p.condExpr()
			if err != nil {
				return nil, err
			}
			v, err := p.evalConst(e)
			if err != nil {
				return nil, err
			}
			n = v
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		elem, err := p.declSuffix(base)
		if err != nil {
			return nil, err
		}
		return arrayOf(elem, n), nil
	case p.isPunct("("):
		p.pos++
		fn := &CFuncInfo{Ret: base}
		if p.isKw("void") && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ")" {
			p.pos += 2
			return &CType{Kind: CFunc, Fn: fn}, nil
		}
		fn.Unprototyped = p.isPunct(")")
		for !p.isPunct(")") {
			if len(fn.Params) > 0 || fn.Variadic {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			if p.accept("...") {
				fn.Variadic = true
				continue
			}
			pb, _, err := p.declSpecs()
			if err != nil {
				return nil, err
			}
			pname, pty, err := p.declarator(pb)
			if err != nil {
				return nil, err
			}
			pty = pty.Decay()
			fn.Params = append(fn.Params, pty)
			fn.Names = append(fn.Names, pname)
		}
		p.pos++ // )
		return &CType{Kind: CFunc, Fn: fn}, nil
	}
	return base, nil
}

// externalDecl parses one top-level declaration or function definition.
func (p *Parser) externalDecl() ([]any, error) {
	if p.accept(";") {
		return nil, nil
	}
	base, st, err := p.declSpecs()
	if err != nil {
		return nil, err
	}
	if p.accept(";") {
		return nil, nil // bare struct/enum declaration
	}
	var out []any
	for {
		pos := p.here()
		name, ty, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errf("expected declarator name")
		}
		if st.typedef {
			p.typedefs.Set(name, ty)
			if !p.accept(",") {
				break
			}
			continue
		}
		if ty.Kind == CFunc && p.isPunct("{") {
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			out = append(out, &FuncDecl{Name: name, Sig: ty.Fn, Body: body, Static: st.static, Pos: pos})
			return out, nil
		}
		if ty.Kind == CFunc {
			out = append(out, &FuncDecl{Name: name, Sig: ty.Fn, Static: st.static, Pos: pos})
		} else {
			vd := &VarDecl{Name: name, Ty: ty, Static: st.static, Extern: st.extern, Const: st.isConst, Pos: pos}
			if p.accept("=") {
				vd.Init, err = p.initializer()
				if err != nil {
					return nil, err
				}
			}
			fixArrayLen(vd)
			out = append(out, vd)
		}
		if !p.accept(",") {
			break
		}
	}
	if st.typedef {
		return out, p.expect(";")
	}
	return out, p.expect(";")
}

// fixArrayLen completes `char s[] = "..."` and `T a[] = {...}` lengths.
func fixArrayLen(vd *VarDecl) {
	if vd.Ty.Kind != CArray || vd.Ty.Len >= 0 || vd.Init == nil {
		return
	}
	switch init := vd.Init.(type) {
	case *StrLit:
		vd.Ty = arrayOf(vd.Ty.Elem, int64(len(init.S))+1)
	case *InitList:
		vd.Ty = arrayOf(vd.Ty.Elem, int64(len(init.Items)))
	}
}

func (p *Parser) initializer() (Expr, error) {
	if p.isPunct("{") {
		pos := p.here()
		p.pos++
		il := &InitList{Pos: pos}
		for !p.isPunct("}") {
			if len(il.Items) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
				if p.isPunct("}") {
					break // trailing comma
				}
			}
			item, err := p.initializer()
			if err != nil {
				return nil, err
			}
			il.Items = append(il.Items, item)
		}
		p.pos++
		return il, nil
	}
	return p.assignExpr()
}

// ---- statements ----

func (p *Parser) block() (*Block, error) {
	pos := p.here()
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.pos++
	return b, nil
}

func (p *Parser) stmt() (Stmt, error) {
	pos := p.here()
	t := p.tok()
	switch {
	case p.isPunct("{"):
		return p.block()
	case p.isPunct(";"):
		p.pos++
		return &ExprStmt{Pos: pos}, nil
	case p.isKw("if"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.isKw("else") {
			p.pos++
			els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: pos}, nil
	case p.isKw("while"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Pos: pos}, nil
	case p.isKw("do"):
		p.pos++
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if !p.isKw("while") {
			return nil, p.errf("expected while after do body")
		}
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, DoWhile: true, Pos: pos}, nil
	case p.isKw("for"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		f := &For{Pos: pos}
		if !p.isPunct(";") {
			if p.startsDecl() {
				ds, err := p.localDecl()
				if err != nil {
					return nil, err
				}
				f.Init = ds
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				f.Init = &ExprStmt{X: e, Pos: pos}
				if err := p.expect(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.pos++
		}
		if !p.isPunct(";") {
			var err error
			f.Cond, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.isPunct(")") {
			var err error
			f.Post, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		f.Body = body
		return f, nil
	case p.isKw("return"):
		p.pos++
		r := &Return{Pos: pos}
		if !p.isPunct(";") {
			var err error
			r.X, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		return r, p.expect(";")
	case p.isKw("break"):
		p.pos++
		return &Break{Pos: pos}, p.expect(";")
	case p.isKw("continue"):
		p.pos++
		return &Continue{Pos: pos}, p.expect(";")
	case p.isKw("switch"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &Switch{X: x, Body: body, Pos: pos}, nil
	case p.isKw("case"):
		p.pos++
		v, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		return &Case{V: v, Pos: pos}, nil
	case p.isKw("default"):
		p.pos++
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		return &Case{IsDefault: true, Pos: pos}, nil
	case p.isKw("goto"):
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Goto{Name: name, Pos: pos}, p.expect(";")
	case t.Kind == TokIdent && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ":" && !p.isTypedef(t.Text):
		p.pos += 2
		return &Label{Name: t.Text, Pos: pos}, nil
	case p.startsDecl():
		return p.localDecl()
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: e, Pos: pos}, p.expect(";")
	}
}

// localDecl parses a declaration statement (consuming the ';').
func (p *Parser) localDecl() (Stmt, error) {
	pos := p.here()
	base, st, err := p.declSpecs()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{Pos: pos}
	if p.accept(";") {
		return ds, nil // bare struct/enum definition
	}
	for {
		dpos := p.here()
		name, ty, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		if st.typedef {
			p.typedefs.Set(name, ty)
		} else {
			vd := &VarDecl{Name: name, Ty: ty, Static: st.static, Extern: st.extern, Const: st.isConst, Pos: dpos}
			if p.accept("=") {
				vd.Init, err = p.initializer()
				if err != nil {
					return nil, err
				}
			}
			fixArrayLen(vd)
			ds.Decls = append(ds.Decls, vd)
		}
		if !p.accept(",") {
			break
		}
	}
	return ds, p.expect(";")
}

// ---- expressions ----

func (p *Parser) expr() (Expr, error) {
	e, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.isPunct(",") {
		pos := p.here()
		p.pos++
		r, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		e = &Binary{Op: ",", X: e, Y: r, Pos: pos}
	}
	return e, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) assignExpr() (Expr, error) {
	l, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.tok()
	if t.Kind == TokPunct && assignOps[t.Text] {
		pos := p.here()
		p.pos++
		r, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{Op: t.Text, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *Parser) condExpr() (Expr, error) {
	c, err := p.binExpr(1)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return c, nil
	}
	pos := p.here()
	p.pos++
	t, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	f, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, T: t, F: f, Pos: pos}, nil
}

// binPrec gives each binary operator its precedence, higher binding tighter.
var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "<<": 8, ">>": 8,
	"+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

// binExpr parses a cast expression followed by binary operators of
// precedence minPrec (at least 1) or higher, by precedence climbing: each
// operator's right operand takes only the operators that bind tighter, so
// the operators associate to the left.
func (p *Parser) binExpr(minPrec int) (Expr, error) {
	l, err := p.castExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.tok()
		prec := 0
		if t.Kind == TokPunct {
			prec = binPrec[t.Text]
		}
		if prec < minPrec {
			return l, nil
		}
		pos := p.here()
		p.pos++
		r, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, X: l, Y: r, Pos: pos}
	}
}

// typeStartAt reports whether the token at offset d begins a type name.
func (p *Parser) typeStartAt(d int) bool {
	t := p.toks[p.pos+d]
	if t.Kind == TokKeyword {
		switch t.Text {
		case "void", "char", "short", "int", "long", "float", "double",
			"signed", "unsigned", "struct", "union", "enum", "const":
			return true
		}
		return false
	}
	return t.Kind == TokIdent && p.isTypedef(t.Text)
}

func (p *Parser) castExpr() (Expr, error) {
	if p.isPunct("(") && p.typeStartAt(1) {
		pos := p.here()
		p.pos++
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		x, err := p.castExpr()
		if err != nil {
			return nil, err
		}
		return &CastExpr{Ty: ty, X: x, Pos: pos}, nil
	}
	return p.unaryExpr()
}

// typeName parses "type-specifiers abstract-declarator" (for casts/sizeof).
func (p *Parser) typeName() (*CType, error) {
	base, _, err := p.declSpecs()
	if err != nil {
		return nil, err
	}
	_, ty, err := p.declarator(base)
	return ty, err
}

func (p *Parser) unaryExpr() (Expr, error) {
	pos := p.here()
	t := p.tok()
	if t.Kind == TokPunct {
		switch t.Text {
		case "&", "*", "-", "+", "!", "~":
			p.pos++
			x, err := p.castExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x, Pos: pos}, nil
		case "++", "--":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x, Pos: pos}, nil
		}
	}
	if p.isKw("sizeof") {
		p.pos++
		if p.isPunct("(") && p.typeStartAt(1) {
			p.pos++
			ty, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SizeofExpr{Ty: ty, Pos: pos}, nil
		}
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{X: x, Pos: pos}, nil
	}
	return p.postfixExpr()
}

func (p *Parser) postfixExpr() (Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.here()
		switch {
		case p.accept("["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{X: e, I: idx, Pos: pos}
		case p.accept("("):
			call := &Call{Fn: e, Pos: pos}
			for !p.isPunct(")") {
				if len(call.Args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			p.pos++
			e = call
		case p.accept("."):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			e = &Member{X: e, Name: name, Pos: pos}
		case p.accept("->"):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			e = &Member{X: e, Name: name, Arrow: true, Pos: pos}
		case p.isPunct("++") || p.isPunct("--"):
			op := p.tok().Text
			p.pos++
			e = &Unary{Op: op, X: e, Postfix: true, Pos: pos}
		default:
			return e, nil
		}
	}
}

func (p *Parser) primaryExpr() (Expr, error) {
	pos := p.here()
	t := p.tok()
	switch t.Kind {
	case TokIntLit:
		p.pos++
		return &IntLit{V: t.Int, Unsigned: t.Unsigned(), Long: t.Long(), Pos: pos}, nil
	case TokCharLit:
		p.pos++
		return &IntLit{V: t.Int, Pos: pos}, nil
	case TokFloatLit:
		p.pos++
		single := len(t.Text) > 0 && (t.Text[len(t.Text)-1] == 'f' || t.Text[len(t.Text)-1] == 'F')
		return &FloatLit{V: t.Flt(), Single: single, Pos: pos}, nil
	case TokStrLit:
		s := t.Str()
		p.pos++
		for p.tok().Kind == TokStrLit { // adjacent literal concatenation
			s += p.tok().Str()
			p.pos++
		}
		return &StrLit{S: s, Pos: pos}, nil
	case TokIdent:
		p.pos++
		if v, ok := p.enums.Get(t.Text); ok {
			return &IntLit{V: v, Pos: pos}, nil
		}
		return &Ident{Name: t.Text, Pos: pos}, nil
	case TokPunct:
		if t.Text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return e, p.expect(")")
		}
	}
	return nil, p.errf("unexpected token %s in expression", p.pdesc())
}

// isTypedef reports whether name is a typedef name.
func (p *Parser) isTypedef(name string) bool {
	ty, _ := p.typedefs.Get(name)
	return ty != nil
}

// evalConst evaluates an integer constant expression at parse time
// (array sizes, enum values, case labels).
func (p *Parser) evalConst(e Expr) (int64, error) {
	switch v := e.(type) {
	case *IntLit:
		return v.V, nil
	case *Unary:
		x, err := p.evalConst(v.X)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -x, nil
		case "+":
			return x, nil
		case "~":
			return ^x, nil
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *Binary:
		x, err := p.evalConst(v.X)
		if err != nil {
			return 0, err
		}
		y, err := p.evalConst(v.Y)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return x + y, nil
		case "-":
			return x - y, nil
		case "*":
			return x * y, nil
		case "/":
			if y == 0 {
				return 0, fmt.Errorf("cc: division by zero in constant expression")
			}
			return x / y, nil
		case "%":
			if y == 0 {
				return 0, fmt.Errorf("cc: modulo by zero in constant expression")
			}
			return x % y, nil
		case "<<":
			return x << uint(y), nil
		case ">>":
			return x >> uint(y), nil
		case "&":
			return x & y, nil
		case "|":
			return x | y, nil
		case "^":
			return x ^ y, nil
		case "==":
			return b2i(x == y), nil
		case "!=":
			return b2i(x != y), nil
		case "<":
			return b2i(x < y), nil
		case "<=":
			return b2i(x <= y), nil
		case ">":
			return b2i(x > y), nil
		case ">=":
			return b2i(x >= y), nil
		case "&&":
			return b2i(x != 0 && y != 0), nil
		case "||":
			return b2i(x != 0 || y != 0), nil
		}
	case *Cond:
		c, err := p.evalConst(v.C)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return p.evalConst(v.T)
		}
		return p.evalConst(v.F)
	case *SizeofExpr:
		if v.Ty != nil {
			return v.Ty.Size(), nil
		}
	case *CastExpr:
		x, err := p.evalConst(v.X)
		if err != nil {
			return 0, err
		}
		if v.Ty.Kind == CInt {
			return truncToBits(x, v.Ty.Bits, v.Ty.Unsigned), nil
		}
		return x, nil
	}
	return 0, fmt.Errorf("cc: expression is not an integer constant")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// truncToBits reduces v to the given width with the given signedness.
func truncToBits(v int64, bits int, unsigned bool) int64 {
	if bits >= 64 {
		return v
	}
	mask := int64(1)<<uint(bits) - 1
	v &= mask
	if !unsigned && v&(1<<uint(bits-1)) != 0 {
		v |= ^mask
	}
	return v
}
