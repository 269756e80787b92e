package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a module in SIR textual form (the format emitted by Print).
func Parse(src string) (*Module, error) {
	p := &parser{lex: newLexer(src)}
	m, err := p.module()
	if p.lex.err != nil {
		err = p.lex.err
	}
	if err != nil {
		return nil, fmt.Errorf("ir: parse error at line %d: %w", p.lex.line, err)
	}
	return m, nil
}

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tStr
	tPunct
)

type token struct {
	kind tokKind
	s    string
	i    int64
	f    float64
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
	tok  token
	err  error // a lexical error ends the input
}

func newLexer(src string) *lexer {
	l := &lexer{src: src, line: 1}
	l.next()
	return l
}

func (l *lexer) next() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\n' {
			l.line++
			l.pos++
			continue
		}
		if c == ' ' || c == '\t' || c == '\r' {
			l.pos++
			continue
		}
		if c == ';' { // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		l.tok = token{kind: tEOF, line: l.line}
		return
	}
	c := l.src[l.pos]
	start := l.pos
	switch {
	case c == '"':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\\' {
				l.pos++
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			l.err = fmt.Errorf("unterminated string")
			l.pos = len(l.src)
			l.tok = token{kind: tEOF, line: l.line}
			return
		}
		l.pos++ // closing quote
		s, err := strconv.Unquote(l.src[start:l.pos])
		if err != nil {
			s = l.src[start:l.pos]
		}
		l.tok = token{kind: tStr, s: s, line: l.line}
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tIdent, s: l.src[start:l.pos], line: l.line}
	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		isFloat := false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c >= '0' && c <= '9' {
				l.pos++
				continue
			}
			if c == '.' || c == 'e' || c == 'E' {
				isFloat = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
		text := l.src[start:l.pos]
		if isFloat {
			f, _ := strconv.ParseFloat(text, 64)
			l.tok = token{kind: tFloat, f: f, line: l.line}
		} else {
			i, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				// values like 9223372036854775808 printed from unsigned use
				u, _ := strconv.ParseUint(text, 10, 64)
				i = int64(u)
			}
			l.tok = token{kind: tInt, i: i, line: l.line}
		}
	default:
		l.pos++
		l.tok = token{kind: tPunct, s: string(c), line: l.line}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '.' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

type parser struct {
	lex *lexer
	m   *Module
}

func (p *parser) tok() token  { return p.lex.tok }
func (p *parser) advance()    { p.lex.next() }
func (p *parser) atEOF() bool { return p.lex.tok.kind == tEOF }

func (p *parser) expectPunct(s string) error {
	t := p.tok()
	if t.kind != tPunct || t.s != s {
		return fmt.Errorf("expected %q, got %q", s, tokenText(t))
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent(s string) error {
	t := p.tok()
	if t.kind != tIdent || t.s != s {
		return fmt.Errorf("expected %q, got %q", s, tokenText(t))
	}
	p.advance()
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.tok()
	if t.kind != tIdent {
		return "", fmt.Errorf("expected identifier, got %q", tokenText(t))
	}
	p.advance()
	return t.s, nil
}

func (p *parser) intLit() (int64, error) {
	t := p.tok()
	if t.kind != tInt {
		return 0, fmt.Errorf("expected integer, got %q", tokenText(t))
	}
	p.advance()
	return t.i, nil
}

func (p *parser) str() (string, error) {
	t := p.tok()
	if t.kind != tStr {
		return "", fmt.Errorf("expected string, got %q", tokenText(t))
	}
	p.advance()
	return t.s, nil
}

func tokenText(t token) string {
	switch t.kind {
	case tEOF:
		return "<eof>"
	case tIdent, tPunct, tStr:
		return t.s
	case tInt:
		return strconv.FormatInt(t.i, 10)
	case tFloat:
		return strconv.FormatFloat(t.f, 'g', -1, 64)
	}
	return "?"
}

func (p *parser) module() (*Module, error) {
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	name, err := p.str()
	if err != nil {
		return nil, err
	}
	p.m = NewModule(name)
	for !p.atEOF() {
		kw, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch kw {
		case "struct":
			if err := p.structDef(false); err != nil {
				return nil, err
			}
		case "union":
			if err := p.structDef(true); err != nil {
				return nil, err
			}
		case "global":
			if err := p.globalDef(); err != nil {
				return nil, err
			}
		case "declare":
			if err := p.declare(); err != nil {
				return nil, err
			}
		case "func":
			if err := p.funcDef(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unexpected top-level keyword %q", kw)
		}
	}
	return p.m, nil
}

func (p *parser) structDef(isUnion bool) error {
	if err := p.expectPunct("%"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	var fields []Field
	for !(p.tok().kind == tPunct && p.tok().s == "}") {
		if len(fields) > 0 {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		ty, err := p.typ()
		if err != nil {
			return err
		}
		fname, err := p.ident()
		if err != nil {
			return err
		}
		fields = append(fields, Field{Name: fname, Ty: ty})
	}
	p.advance() // }
	if isUnion {
		// Union layout: every field at offset 0, size/align of the widest
		// member (the same layout the C front end produces via SetLayout).
		st := &StructType{Name: name, Fields: fields}
		var size, align int64 = 0, 1
		for i := range st.Fields {
			st.Fields[i].Offset = 0
			if s := st.Fields[i].Ty.Size(); s > size {
				size = s
			}
			if a := st.Fields[i].Ty.Align(); a > align {
				align = a
			}
		}
		st.SetLayout(alignUp(size, align), align)
		p.m.Structs[name] = st
		return nil
	}
	p.m.Structs[name] = NewStruct(name, fields)
	return nil
}

func (p *parser) typ() (Type, error) {
	t := p.tok()
	switch {
	case t.kind == tIdent && t.s == "void":
		p.advance()
		return Void, nil
	case t.kind == tIdent && t.s == "ptr":
		p.advance()
		return BytePtr, nil
	case t.kind == tIdent && (t.s == "f32" || t.s == "f64"):
		p.advance()
		if t.s == "f32" {
			return F32, nil
		}
		return F64, nil
	case t.kind == tIdent && strings.HasPrefix(t.s, "i"):
		bits, err := strconv.Atoi(t.s[1:])
		if err != nil || bits <= 0 || bits > 64 {
			return nil, fmt.Errorf("bad integer type %q", t.s)
		}
		p.advance()
		return IntN(bits), nil
	case t.kind == tIdent && t.s == "fn":
		p.advance()
		return p.fnType()
	case t.kind == tPunct && t.s == "[":
		p.advance()
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		if err := p.expectIdent("x"); err != nil {
			return nil, err
		}
		elem, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		return &ArrayType{Elem: elem, Len: n}, nil
	case t.kind == tPunct && t.s == "%":
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st, ok := p.m.Structs[name]
		if !ok {
			return nil, fmt.Errorf("unknown struct %%%s", name)
		}
		return st, nil
	case t.kind == tPunct && t.s == "{":
		p.advance()
		var fields []Field
		for !(p.tok().kind == tPunct && p.tok().s == "}") {
			if len(fields) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			ty, err := p.typ()
			if err != nil {
				return nil, err
			}
			fields = append(fields, Field{Name: fmt.Sprintf("f%d", len(fields)), Ty: ty})
		}
		p.advance()
		return NewStruct("", fields), nil
	}
	return nil, fmt.Errorf("expected type, got %q", tokenText(t))
}

func (p *parser) fnType() (*FuncType, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	ft := &FuncType{}
	for !(p.tok().kind == tPunct && p.tok().s == ")") {
		if len(ft.Params) > 0 || ft.Variadic {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		if p.tok().kind == tPunct && p.tok().s == "." {
			// "..." prints as three dots; the lexer may merge them into ident "..."
			for i := 0; i < 3; i++ {
				if p.tok().kind == tPunct && p.tok().s == "." {
					p.advance()
				}
			}
			ft.Variadic = true
			continue
		}
		if p.tok().kind == tIdent && p.tok().s == "..." {
			p.advance()
			ft.Variadic = true
			continue
		}
		ty, err := p.typ()
		if err != nil {
			return nil, err
		}
		ft.Params = append(ft.Params, ty)
	}
	p.advance() // )
	ret, err := p.typ()
	if err != nil {
		return nil, err
	}
	ft.Ret = ret
	return ft, nil
}

func (p *parser) globalDef() error {
	if err := p.expectPunct("@"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	g := &Global{Name: name}
	if p.tok().kind == tIdent && p.tok().s == "const" {
		g.IsConst = true
		p.advance()
	}
	g.Ty, err = p.typ()
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	g.Init, err = p.constVal()
	if err != nil {
		return err
	}
	if p.tok().kind == tPunct && p.tok().s == "!" {
		p.advance()
		if err := p.expectIdent("ctype"); err != nil {
			return err
		}
		s, err := p.str()
		if err != nil {
			return err
		}
		g.CType = s
	}
	return p.m.AddGlobal(g)
}

func (p *parser) constVal() (Const, error) {
	kw, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch kw {
	case "zero":
		return ConstZero{}, nil
	case "int":
		v, err := p.intLit()
		if err != nil {
			return nil, err
		}
		return ConstIntVal{V: v}, nil
	case "float":
		t := p.tok()
		var f float64
		switch t.kind {
		case tFloat:
			f = t.f
		case tInt:
			f = float64(t.i)
		default:
			return nil, fmt.Errorf("expected float, got %q", tokenText(t))
		}
		p.advance()
		return ConstFloatVal{V: f}, nil
	case "bytes":
		s, err := p.str()
		if err != nil {
			return nil, err
		}
		return ConstBytes{Data: []byte(s)}, nil
	case "array":
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		var elems []Const
		for !(p.tok().kind == tPunct && p.tok().s == "]") {
			if len(elems) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			e, err := p.constVal()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		p.advance()
		return ConstArrayVal{Elems: elems}, nil
	case "fields":
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		var elems []Const
		for !(p.tok().kind == tPunct && p.tok().s == "}") {
			if len(elems) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			e, err := p.constVal()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		p.advance()
		return ConstStructVal{Fields: elems}, nil
	case "addr":
		t := p.tok()
		if t.kind == tPunct && t.s == "@" {
			p.advance()
			sym, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("+"); err != nil {
				return nil, err
			}
			off, err := p.intLit()
			if err != nil {
				return nil, err
			}
			return ConstGlobalRef{Sym: sym, Off: off}, nil
		}
		if t.kind == tPunct && t.s == "&" {
			p.advance()
			sym, err := p.ident()
			if err != nil {
				return nil, err
			}
			return ConstFuncRef{Sym: sym}, nil
		}
		return nil, fmt.Errorf("expected @global or &func after addr")
	}
	return nil, fmt.Errorf("unknown constant kind %q", kw)
}

func (p *parser) declare() error {
	if err := p.expectPunct("@"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expectIdent("fn"); err != nil {
		return err
	}
	sig, err := p.fnType()
	if err != nil {
		return err
	}
	p.m.AddFunc(&Func{Name: name, Sig: sig, IsDecl: true})
	return nil
}

func (p *parser) funcDef() error {
	if err := p.expectPunct("@"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expectIdent("fn"); err != nil {
		return err
	}
	sig, err := p.fnType()
	if err != nil {
		return err
	}
	f := &Func{Name: name, Sig: sig}
	if err := p.expectIdent("regs"); err != nil {
		return err
	}
	n, err := p.intLit()
	if err != nil {
		return err
	}
	f.NumRegs = int(n)
	if p.tok().kind == tIdent && p.tok().s == "names" {
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !(p.tok().kind == tPunct && p.tok().s == ")") {
			if len(f.ParamNames) > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			pn, err := p.ident()
			if err != nil {
				return err
			}
			f.ParamNames = append(f.ParamNames, pn)
		}
		p.advance()
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}

	// First pass: collect blocks and raw instruction lines; block targets are
	// names until all blocks are known.
	type pendingTarget struct {
		blk, instr, which int // which: 0 = Blk0, 1 = Blk1, 2+n = case n
		name              string
	}
	var pend []pendingTarget
	blockIdx := map[string]int{}
	for !(p.tok().kind == tPunct && p.tok().s == "}") {
		label, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		blk := &Block{Name: label}
		blockIdx[label] = len(f.Blocks)
		f.Blocks = append(f.Blocks, blk)
		for {
			t := p.tok()
			if t.kind == tPunct && t.s == "}" {
				break
			}
			// A new block starts with "ident :".
			if t.kind == tIdent {
				save := *p.lex
				name := t.s
				p.advance()
				if p.tok().kind == tPunct && p.tok().s == ":" {
					*p.lex = save
					break
				}
				*p.lex = save
				_ = name
			}
			in, targets, err := p.instr(f)
			if err != nil {
				return err
			}
			for _, tg := range targets {
				tg.blk = len(f.Blocks) - 1
				tg.instr = len(blk.Instrs)
				pend = append(pend, pendingTarget{tg.blk, tg.instr, tg.which, tg.name})
			}
			blk.Instrs = append(blk.Instrs, in)
		}
	}
	p.advance() // }
	for _, tg := range pend {
		idx, ok := blockIdx[tg.name]
		if !ok {
			return fmt.Errorf("function %s: unknown block %q", name, tg.name)
		}
		in := &f.Blocks[tg.blk].Instrs[tg.instr]
		switch {
		case tg.which == 0:
			in.Blk0 = int32(idx)
		case tg.which == 1:
			in.Blk1 = int32(idx)
		default:
			in.Ext.Cases[tg.which-2].Blk = int32(idx)
		}
	}
	p.m.AddFunc(f)
	return nil
}

type target struct {
	blk, instr, which int
	name              string
}

// instr parses one instruction. Branch targets come back as names in targets.
// Trailing "!key value" annotations restore instruction metadata: "!line N"
// restores the source line (without it, Line stays 0 — "unknown" — instead of
// being repointed at the IR-text token line) and `!ctype "T"` restores the
// declared C type that drives the dynamic type-identity checks. Annotations
// may appear in any order.
func (p *parser) instr(f *Func) (Instr, []target, error) {
	in, targets, err := p.instrBody(f)
	if err != nil {
		return in, targets, err
	}
	switch in.Op {
	case OpAlloca, OpLoad, OpGEP, OpBin, OpCmp, OpCast, OpSelect:
		if in.Dst < 0 {
			return in, targets, fmt.Errorf("value instruction without a destination register")
		}
	}
	for p.tok().kind == tPunct && p.tok().s == "!" {
		p.advance()
		key, err := p.ident()
		if err != nil {
			return in, targets, err
		}
		switch key {
		case "line":
			n, err := p.intLit()
			if err != nil {
				return in, targets, err
			}
			if n != int64(int32(n)) {
				return in, targets, fmt.Errorf("line %d out of range", n)
			}
			in.Line = int32(n)
		case "ctype":
			s, err := p.str()
			if err != nil {
				return in, targets, err
			}
			in.writeExt().CType = s
		default:
			return in, targets, fmt.Errorf("unknown instruction annotation !%s", key)
		}
	}
	return in, targets, nil
}

func (p *parser) instrBody(f *Func) (Instr, []target, error) {
	in := Instr{Dst: -1}
	var targets []target

	// Destination form: %rN = ...
	if p.tok().kind == tPunct && p.tok().s == "%" {
		p.advance()
		reg, err := p.ident()
		if err != nil {
			return in, nil, err
		}
		if !strings.HasPrefix(reg, "r") {
			return in, nil, fmt.Errorf("bad register %q", reg)
		}
		n, err := regNum(reg)
		if err != nil {
			return in, nil, err
		}
		in.Dst = n
		if err := p.expectPunct("="); err != nil {
			return in, nil, err
		}
	}

	kw, err := p.ident()
	if err != nil {
		return in, nil, err
	}
	switch kw {
	case "alloca":
		in.Op = OpAlloca
		in.Ty, err = p.typ()
		if err != nil {
			return in, nil, err
		}
		if p.tok().kind == tIdent && p.tok().s == "count" {
			p.advance()
			cnt, err := p.operand()
			if err != nil {
				return in, nil, err
			}
			in.SetCount(cnt)
		}
		if p.tok().kind == tIdent && p.tok().s == "name" {
			p.advance()
			if in.writeExt().Name, err = p.str(); err != nil {
				return in, nil, err
			}
		}
	case "load":
		in.Op = OpLoad
		if in.Ty, err = p.typ(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.Addr, err = p.operand(); err != nil {
			return in, nil, err
		}
	case "store":
		in.Op = OpStore
		if in.Ty, err = p.typ(); err != nil {
			return in, nil, err
		}
		if in.A, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.Addr, err = p.operand(); err != nil {
			return in, nil, err
		}
	case "gep":
		in.Op = OpGEP
		if in.Addr, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.Stride, err = p.intLit(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.A, err = p.operand(); err != nil {
			return in, nil, err
		}
	case "cmp":
		in.Op = OpCmp
		pred, err := p.ident()
		if err != nil {
			return in, nil, err
		}
		found := false
		for i, n := range predNames {
			if n == pred {
				in.Pred = Pred(i)
				found = true
				break
			}
		}
		if !found {
			return in, nil, fmt.Errorf("unknown predicate %q", pred)
		}
		if in.Ty, err = p.typ(); err != nil {
			return in, nil, err
		}
		if in.A, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.B, err = p.operand(); err != nil {
			return in, nil, err
		}
	case "select":
		in.Op = OpSelect
		if in.A, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.Ty, err = p.typ(); err != nil {
			return in, nil, err
		}
		if in.B, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if in.writeExt().C, err = p.operand(); err != nil {
			return in, nil, err
		}
	case "call":
		in.Op = OpCall
		x := in.writeExt()
		if p.tok().kind == tIdent && p.tok().s == "void" {
			p.advance()
			in.Ty = Void
		} else {
			if in.Ty, err = p.typ(); err != nil {
				return in, nil, err
			}
		}
		if x.Callee, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct("("); err != nil {
			return in, nil, err
		}
		for !(p.tok().kind == tPunct && p.tok().s == ")") {
			if len(x.Args) > 0 {
				if err = p.expectPunct(","); err != nil {
					return in, nil, err
				}
			}
			aty, err := p.typ()
			if err != nil {
				return in, nil, err
			}
			a, err := p.operand()
			if err != nil {
				return in, nil, err
			}
			a.Ty = aty
			x.Args = append(x.Args, a)
		}
		p.advance() // )
		if err = p.expectIdent("fixed"); err != nil {
			return in, nil, err
		}
		n, err := p.intLit()
		if err != nil {
			return in, nil, err
		}
		x.FixedArgs = int(n)
	case "br":
		in.Op = OpBr
		name, err := p.ident()
		if err != nil {
			return in, nil, err
		}
		targets = append(targets, target{which: 0, name: name})
	case "condbr":
		in.Op = OpCondBr
		if in.A, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		n0, err := p.ident()
		if err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		n1, err := p.ident()
		if err != nil {
			return in, nil, err
		}
		targets = append(targets, target{which: 0, name: n0}, target{which: 1, name: n1})
	case "switch":
		in.Op = OpSwitch
		x := in.writeExt()
		if in.Ty, err = p.typ(); err != nil {
			return in, nil, err
		}
		if in.A, err = p.operand(); err != nil {
			return in, nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return in, nil, err
		}
		if err = p.expectIdent("default"); err != nil {
			return in, nil, err
		}
		dn, err := p.ident()
		if err != nil {
			return in, nil, err
		}
		targets = append(targets, target{which: 0, name: dn})
		if err = p.expectPunct("["); err != nil {
			return in, nil, err
		}
		for !(p.tok().kind == tPunct && p.tok().s == "]") {
			if len(x.Cases) > 0 {
				if err = p.expectPunct(","); err != nil {
					return in, nil, err
				}
			}
			v, err := p.intLit()
			if err != nil {
				return in, nil, err
			}
			if err = p.expectPunct(":"); err != nil {
				return in, nil, err
			}
			cn, err := p.ident()
			if err != nil {
				return in, nil, err
			}
			targets = append(targets, target{which: 2 + len(x.Cases), name: cn})
			x.Cases = append(x.Cases, SwitchCase{Val: v})
		}
		p.advance()
	case "ret":
		in.Op = OpRet
		if p.tok().kind == tIdent && p.tok().s == "void" {
			p.advance()
		} else {
			if in.Ty, err = p.typ(); err != nil {
				return in, nil, err
			}
			if in.A, err = p.operand(); err != nil {
				return in, nil, err
			}
		}
	case "unreachable":
		in.Op = OpUnreachable
	default:
		// bin or cast op
		for i, n := range binNames {
			if n == kw {
				in.Op = OpBin
				in.Bin = BinOp(i)
				if in.Ty, err = p.typ(); err != nil {
					return in, nil, err
				}
				if in.A, err = p.operand(); err != nil {
					return in, nil, err
				}
				if err = p.expectPunct(","); err != nil {
					return in, nil, err
				}
				if in.B, err = p.operand(); err != nil {
					return in, nil, err
				}
				return in, targets, nil
			}
		}
		for i, n := range castNames {
			if n == kw {
				in.Op = OpCast
				in.Cast = CastOp(i)
				if in.Ty, err = p.typ(); err != nil {
					return in, nil, err
				}
				if in.A, err = p.operand(); err != nil {
					return in, nil, err
				}
				if err = p.expectIdent("to"); err != nil {
					return in, nil, err
				}
				if in.Ty2, err = p.typ(); err != nil {
					return in, nil, err
				}
				return in, targets, nil
			}
		}
		return in, nil, fmt.Errorf("unknown instruction %q", kw)
	}
	return in, targets, nil
}

// regNum parses the number of register name "rN".
func regNum(reg string) (int32, error) {
	n, err := strconv.ParseInt(reg[1:], 10, 32)
	return int32(n), err
}

func (p *parser) operand() (Operand, error) {
	t := p.tok()
	switch {
	case t.kind == tPunct && t.s == "%":
		p.advance()
		reg, err := p.ident()
		if err != nil {
			return Operand{}, err
		}
		if !strings.HasPrefix(reg, "r") {
			return Operand{}, fmt.Errorf("bad register %q", reg)
		}
		n, err := regNum(reg)
		if err != nil {
			return Operand{}, err
		}
		return Reg(n, nil), nil
	case t.kind == tInt:
		p.advance()
		return ConstInt(t.i, I64), nil
	case t.kind == tFloat:
		p.advance()
		return ConstFloat(t.f, F64), nil
	case t.kind == tPunct && t.s == "@":
		p.advance()
		sym, err := p.ident()
		if err != nil {
			return Operand{}, err
		}
		return GlobalRef(sym), nil
	case t.kind == tPunct && t.s == "&":
		p.advance()
		sym, err := p.ident()
		if err != nil {
			return Operand{}, err
		}
		return FuncRef(sym), nil
	case t.kind == tIdent && t.s == "null":
		p.advance()
		return Null(), nil
	}
	return Operand{}, fmt.Errorf("expected operand, got %q", tokenText(t))
}
