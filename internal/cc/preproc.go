package cc

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/overlay"
)

// macro is a preprocessor macro definition.
type macro struct {
	name     string
	funcLike bool
	params   []string
	body     []Token
}

// preprocessor expands a token stream: directives, macro expansion, and
// conditional compilation. It is deliberately small — the bundled libc
// headers and the corpus only need object/function macros, #include,
// #if/#ifdef/#ifndef/#else/#endif, #undef, and defined().
type preprocessor struct {
	files   func(name string) (string, bool) // include name -> contents
	macros  *overlay.Map[string, *macro]
	out     []Token
	depth   int
	maxWork int // expansion budget; guards against runaway recursion

	// The unit's first file is preprocessed in place: out starts as an
	// empty window of its lexed tokens, in, and overwrites what was read.
	// next is the index of in's first token not read yet; a write that
	// would reach it moves out to an array of its own (emit), and in is
	// nil from then on.
	in   []Token
	next int

	names []string  // the unit's file table, which Token.File indexes
	hides []hideSet // hide sets; hideID k is hides[k-1]

	// The include guard of each file whose whole contents one #ifndef group
	// holds (see includeGuard): sharedGuards is the prefix's, read-only, and
	// guards what this unit lexed.
	sharedGuards, guards map[string]string
}

// lookupIn resolves include names (as written between quotes or angle
// brackets) in one file map.
func lookupIn(files map[string]string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		src, ok := files[name]
		return src, ok
	}
}

func (p *preprocessor) processFile(name string) error {
	src, ok := p.files(name)
	if !ok {
		return fmt.Errorf("cc: include file %q not found", name)
	}
	p.depth++
	if p.depth > 40 {
		return fmt.Errorf("cc: include depth exceeded at %q", name)
	}
	defer func() { p.depth-- }()
	if guard, ok := p.guard(name); ok {
		if _, defined := p.macros.Get(guard); defined {
			// Every token of the file is in a group its guard turns off:
			// processing it would emit only newlines, define nothing and
			// spend no expansion budget. (The multiple-include optimization
			// of GCC's cpp.)
			return nil
		}
	}
	toks, err := lexFile(name, p.fileID(name), src)
	if err != nil {
		return err
	}
	if guard, ok := includeGuard(toks); ok {
		p.guards[name] = guard
	}
	if p.out != nil {
		return p.processTokens(toks, false)
	}
	// The file's tokens come out at most once each, bar macro expansions,
	// and newlines do not come out at all.
	p.out, p.in = toks[:0], toks
	if err := p.processTokens(toks, true); err != nil {
		return err
	}
	p.next = len(toks)
	return nil
}

// isMacro reports whether name is a defined macro.
func (p *preprocessor) isMacro(name string) bool {
	m, _ := p.macros.Get(name)
	return m != nil
}

// fileID returns name's index in the unit's file table, adding it if it
// is new. Index 0 is the empty name: a token made with no position
// reports ":0:", as it always has.
func (p *preprocessor) fileID(name string) uint32 {
	if p.names == nil {
		p.names = []string{""}
	}
	for i, n := range p.names {
		if n == name {
			return uint32(i)
		}
	}
	p.names = append(p.names, name)
	return uint32(len(p.names) - 1)
}

// at renders t's position for an error message.
func (p *preprocessor) at(t *Token) string {
	return fmt.Sprintf("%s:%d", p.names[t.File], t.Line)
}

// emit appends ts to the output. While the output overwrites the first
// file's tokens (processFile), a write that would reach the first token
// not read yet first moves the output to an array of its own.
func (p *preprocessor) emit(ts ...Token) {
	if p.in != nil && len(p.out)+len(ts) > p.next {
		out := make([]Token, len(p.out), len(p.out)+len(ts)+len(p.in)-p.next)
		copy(out, p.out)
		p.out, p.in = out, nil
	}
	p.out = append(p.out, ts...)
}

// hideID names a hide set: the macros a token came out of, which it must
// not expand again. 0 is the empty set.
type hideID uint32

// hideSet is the set rest plus the macro name.
type hideSet struct {
	name string
	rest hideID
}

// hidden reports whether name is in the hide set h.
func (p *preprocessor) hidden(h hideID, name string) bool {
	for h != 0 {
		s := &p.hides[h-1]
		if s.name == name {
			return true
		}
		h = s.rest
	}
	return false
}

// hideAdd returns the hide set h plus name.
func (p *preprocessor) hideAdd(h hideID, name string) hideID {
	if p.hidden(h, name) {
		return h
	}
	p.hides = append(p.hides, hideSet{name: name, rest: h})
	return hideID(len(p.hides))
}

// hideUnion returns the union of the hide sets a and b.
func (p *preprocessor) hideUnion(a, b hideID) hideID {
	for b != 0 {
		s := p.hides[b-1]
		a = p.hideAdd(a, s.name)
		b = s.rest
	}
	return a
}

// guard returns the include guard recorded for the named file. A name
// resolves to the same contents for the prefix and every unit continuing
// it, so the prefix's record holds for the unit.
func (p *preprocessor) guard(name string) (string, bool) {
	if g, ok := p.guards[name]; ok {
		return g, true
	}
	g, ok := p.sharedGuards[name]
	return g, ok
}

// includeGuard reports whether a lexed file is wholly one include-guard
// group, returning its macro X: leading newlines, then `#ifndef X` alone on
// its line, then the group, closed by the #endif that balances it with no
// #elif or #else of its own, then only newlines. While X is defined such a
// file emits nothing but newlines: every directive inside the group is in
// a skipped region, where none but a malformed one acts, and a file that
// was processed once without error has none of those.
func includeGuard(toks []Token) (string, bool) {
	i := 0
	for i < len(toks) && toks[i].Kind == TokNewline {
		i++
	}
	if i+3 >= len(toks) || !isHash(&toks[i]) || toks[i+1].Text != "ifndef" ||
		toks[i+2].Kind != TokIdent || toks[i+3].Kind != TokNewline {
		return "", false
	}
	guard := toks[i+2].Text
	depth := 0
	for atLineStart := true; i < len(toks) && toks[i].Kind != TokEOF; i++ {
		t := &toks[i]
		if t.Kind == TokNewline {
			atLineStart = true
			continue
		}
		if !atLineStart {
			continue
		}
		atLineStart = false
		if !isHash(t) || i+1 == len(toks) {
			continue
		}
		switch toks[i+1].Text {
		case "if", "ifdef", "ifndef":
			depth++
		case "elif", "else":
			if depth == 1 {
				return "", false
			}
		case "endif":
			if depth--; depth > 0 {
				continue
			}
			// The rest of the closing #endif's line belongs to it; after
			// that, only newlines may follow.
			for i += 2; i < len(toks) && toks[i].Kind != TokNewline && toks[i].Kind != TokEOF; i++ {
			}
			for ; i < len(toks) && toks[i].Kind != TokEOF; i++ {
				if toks[i].Kind != TokNewline {
					return "", false
				}
			}
			return guard, true
		}
	}
	return "", false // the group is unterminated
}

func isHash(t *Token) bool { return t.Kind == TokPunct && t.Text == "#" }

// condState tracks one #if level.
type condState struct {
	active    bool // this branch is being emitted
	taken     bool // some branch at this level has been emitted
	parentOff bool
	sawElse   bool // the level's #else has been seen: no #elif or #else may follow
}

// errBudget reports that a unit's macro expansion ran out of work.
var errBudget = errors.New("cc: macro expansion budget exceeded (recursive macro?)")

// processTokens preprocesses one file's tokens. inPlace says the output
// overwrites them (processFile).
func (p *preprocessor) processTokens(toks []Token, inPlace bool) error {
	var conds []condState
	i := 0
	atLineStart := true
	emitting := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}
	for i < len(toks) {
		t := &toks[i]
		if t.Kind == TokEOF {
			break
		}
		if t.Kind == TokNewline {
			// The parser is not line-oriented: newlines end directives and
			// are not emitted.
			atLineStart = true
			i++
			continue
		}
		if atLineStart && isHash(t) {
			// collect directive line
			j := i + 1
			for j < len(toks) && toks[j].Kind != TokNewline && toks[j].Kind != TokEOF {
				j++
			}
			if inPlace {
				p.next = i // an #include's output must not overwrite the line
			}
			if err := p.directive(toks[i+1:j], &conds, emitting()); err != nil {
				return fmt.Errorf("%s: %w", p.at(t), err)
			}
			i = j
			continue
		}
		atLineStart = false
		if !emitting() {
			i++
			continue
		}
		if t.Kind != TokIdent || !p.isMacro(t.Text) {
			// Not a macro invocation: fullExpand's identity case, for the
			// same one unit of work.
			if p.maxWork--; p.maxWork < 0 {
				return fmt.Errorf("%s: %w", p.at(t), errBudget)
			}
			i++
			if inPlace {
				p.next = i
			}
			p.emit(*t)
			continue
		}
		end := p.invocationEnd(toks, i)
		exp, err := p.fullExpand(toks[i:end])
		if err != nil {
			return fmt.Errorf("%s: %w", p.at(t), err)
		}
		if inPlace {
			p.next = end
		}
		p.emit(exp...)
		i = end
	}
	if len(conds) != 0 {
		return fmt.Errorf("cc: unterminated #if")
	}
	return nil
}

// invocationEnd returns the index just past the macro invocation starting at
// toks[i]: the identifier alone for object-like macros, or identifier plus a
// balanced argument list for function-like macros.
func (p *preprocessor) invocationEnd(toks []Token, i int) int {
	t := toks[i]
	if t.Kind != TokIdent {
		return i + 1
	}
	m, ok := p.macros.Get(t.Text)
	if !ok || !m.funcLike {
		return i + 1
	}
	j := i + 1
	for j < len(toks) && toks[j].Kind == TokNewline {
		j++
	}
	if j >= len(toks) || !(toks[j].Kind == TokPunct && toks[j].Text == "(") {
		return i + 1
	}
	_, next, err := collectMacroArgs(toks, j)
	if err != nil {
		return i + 1
	}
	return next
}

// fullExpand rescans a token run to fixpoint, expanding macros. The run must
// contain complete invocations (guaranteed by invocationEnd).
func (p *preprocessor) fullExpand(inv []Token) ([]Token, error) {
	queue := append([]Token(nil), inv...)
	var out []Token
	idx := 0
	for idx < len(queue) {
		if p.maxWork--; p.maxWork < 0 {
			return nil, errBudget
		}
		t := queue[idx]
		if t.Kind != TokIdent {
			out = append(out, t)
			idx++
			continue
		}
		m, ok := p.macros.Get(t.Text)
		if !ok || p.hidden(t.hide, t.Text) {
			out = append(out, t)
			idx++
			continue
		}
		if !m.funcLike {
			sub := p.substitute(m, nil, t)
			queue = splice(queue, idx, idx+1, sub)
			continue
		}
		j := idx + 1
		for j < len(queue) && queue[j].Kind == TokNewline {
			j++
		}
		if j >= len(queue) || !(queue[j].Kind == TokPunct && queue[j].Text == "(") {
			out = append(out, t)
			idx++
			continue
		}
		args, next, err := collectMacroArgs(queue, j)
		if err != nil {
			return nil, fmt.Errorf("macro %s: %w", t.Text, err)
		}
		if len(args) == 1 && len(args[0]) == 0 && len(m.params) == 0 {
			args = nil
		}
		if len(args) != len(m.params) {
			return nil, fmt.Errorf("macro %s expects %d args, got %d", t.Text, len(m.params), len(args))
		}
		sub := p.substitute(m, args, t)
		queue = splice(queue, idx, next, sub)
	}
	return out, nil
}

func splice(toks []Token, from, to int, repl []Token) []Token {
	out := make([]Token, 0, len(toks)-(to-from)+len(repl))
	out = append(out, toks[:from]...)
	out = append(out, repl...)
	out = append(out, toks[to:]...)
	return out
}

// substitute replaces parameters in the macro body and marks the result
// against re-expansion of the same macro.
func (p *preprocessor) substitute(m *macro, args [][]Token, site Token) []Token {
	var out []Token
	for bi := 0; bi < len(m.body); bi++ {
		bt := m.body[bi]
		// ## token pasting for identifiers/numbers
		if bi+2 < len(m.body) && m.body[bi+1].Kind == TokPunct && m.body[bi+1].Text == "##" {
			left := resolveSingle(bt, args, m.params)
			right := resolveSingle(m.body[bi+2], args, m.params)
			pasted := word(&left) + word(&right)
			nt := Token{Kind: TokIdent, Text: pasted, File: site.File, Line: site.Line}
			if keywords[pasted] {
				nt.Kind = TokKeyword
			}
			out = append(out, nt)
			bi += 2
			continue
		}
		if bt.Kind == TokIdent {
			if k := slices.Index(m.params, bt.Text); k >= 0 {
				for _, at := range args[k] {
					at.File, at.Line = site.File, site.Line
					out = append(out, at)
				}
				continue
			}
		}
		bt.File, bt.Line = site.File, site.Line
		out = append(out, bt)
	}
	// Each token's hide set becomes its own plus the site's plus m. A body
	// token's own is empty; an argument's may not be.
	base := p.hideAdd(site.hide, m.name)
	var from, to hideID
	for k := range out {
		switch h := out[k].hide; {
		case h == 0:
			out[k].hide = base
		case h != from:
			from, to = h, p.hideUnion(base, h)
			fallthrough
		default:
			out[k].hide = to
		}
	}
	return out
}

func resolveSingle(t Token, args [][]Token, params []string) Token {
	if t.Kind == TokIdent {
		if k := slices.Index(params, t.Text); k >= 0 && len(args[k]) == 1 {
			return args[k][0]
		}
	}
	return t
}

// word is t's text where the preprocessor reads a token as a word (a
// directive's name, a pasted operand, an #include <...> part, a message):
// a string literal, whose Text is its quoted spelling, has none.
func word(t *Token) string {
	if t.Kind == TokStrLit {
		return ""
	}
	return t.Text
}

// collectMacroArgs reads "( a, b, ... )" starting at the open paren and
// returns the comma-separated argument token lists.
func collectMacroArgs(toks []Token, open int) (args [][]Token, next int, err error) {
	depth := 0
	cur := []Token{}
	i := open
	for ; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokNewline {
			continue
		}
		if t.Kind == TokEOF {
			return nil, 0, fmt.Errorf("unterminated macro invocation")
		}
		if t.Kind == TokPunct {
			switch t.Text {
			case "(":
				depth++
				if depth == 1 {
					continue
				}
			case ")":
				depth--
				if depth == 0 {
					args = append(args, cur)
					return args, i + 1, nil
				}
			case ",":
				if depth == 1 {
					args = append(args, cur)
					cur = []Token{}
					continue
				}
			}
		}
		cur = append(cur, t)
	}
	return nil, 0, fmt.Errorf("unterminated macro invocation")
}

func (p *preprocessor) directive(line []Token, conds *[]condState, emitting bool) error {
	if len(line) == 0 {
		return nil // null directive
	}
	name := word(&line[0])
	switch name {
	case "ifdef", "ifndef":
		if len(line) < 2 {
			return fmt.Errorf("#%s requires a name", name)
		}
		_, defined := p.macros.Get(word(&line[1]))
		active := defined == (name == "ifdef")
		*conds = append(*conds, condState{active: active && emitting, taken: active, parentOff: !emitting})
	case "if":
		v := int64(0)
		if emitting {
			var err error
			v, err = p.evalCond(line[1:])
			if err != nil {
				return err
			}
		}
		*conds = append(*conds, condState{active: v != 0 && emitting, taken: v != 0, parentOff: !emitting})
	case "elif":
		if len(*conds) == 0 {
			return fmt.Errorf("#elif without #if")
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			return fmt.Errorf("#elif after #else")
		}
		if c.parentOff || c.taken {
			c.active = false
			return nil
		}
		v, err := p.evalCond(line[1:])
		if err != nil {
			return err
		}
		c.active = v != 0
		c.taken = v != 0
	case "else":
		if len(*conds) == 0 {
			return fmt.Errorf("#else without #if")
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			return fmt.Errorf("#else after #else")
		}
		c.active = !c.parentOff && !c.taken
		c.taken, c.sawElse = true, true
	case "endif":
		if len(*conds) == 0 {
			return fmt.Errorf("#endif without #if")
		}
		*conds = (*conds)[:len(*conds)-1]
	case "define":
		if !emitting {
			return nil
		}
		return p.define(line[1:])
	case "undef":
		if !emitting {
			return nil
		}
		if len(line) < 2 {
			return fmt.Errorf("#undef requires a name")
		}
		p.macros.Delete(word(&line[1]))
	case "include":
		if !emitting {
			return nil
		}
		return p.include(line[1:])
	case "pragma", "error", "warning":
		if name == "error" && emitting {
			return fmt.Errorf("#error %s", tokensText(line[1:]))
		}
	default:
		return fmt.Errorf("unknown directive #%s", name)
	}
	return nil
}

func (p *preprocessor) define(line []Token) error {
	if len(line) == 0 || line[0].Kind != TokIdent && line[0].Kind != TokKeyword {
		return fmt.Errorf("#define requires a name")
	}
	m := &macro{name: line[0].Text}
	rest := line[1:]
	// Function-like only when '(' immediately follows the name; the lexer
	// dropped whitespace, so approximate with: next token is '(' and the
	// body otherwise starts with it. This matches all bundled headers.
	if len(rest) > 0 && rest[0].Kind == TokPunct && rest[0].Text == "(" && rest[0].Adj() {
		m.funcLike = true
		i := 1
		for i < len(rest) && !(rest[i].Kind == TokPunct && rest[i].Text == ")") {
			if rest[i].Kind == TokPunct && rest[i].Text == "," {
				i++
				continue
			}
			if rest[i].Kind != TokIdent {
				return fmt.Errorf("bad macro parameter %q", word(&rest[i]))
			}
			m.params = append(m.params, rest[i].Text)
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated macro parameter list")
		}
		m.body = append([]Token(nil), rest[i+1:]...)
	} else {
		m.body = append([]Token(nil), rest...)
	}
	p.macros.Set(m.name, m)
	return nil
}

func (p *preprocessor) include(line []Token) error {
	if len(line) == 0 {
		return fmt.Errorf("#include requires a file")
	}
	if line[0].Kind == TokStrLit {
		return p.processFile(line[0].Str())
	}
	// <name.h>: tokens are < name . h >
	var sb strings.Builder
	if !(line[0].Kind == TokPunct && line[0].Text == "<") {
		return fmt.Errorf("bad #include syntax")
	}
	for i := range line[1:] {
		t := &line[1+i]
		if t.Kind == TokPunct && t.Text == ">" {
			return p.processFile(sb.String())
		}
		sb.WriteString(word(t))
	}
	return fmt.Errorf("unterminated #include <...>")
}

// evalCond evaluates a preprocessor conditional expression. Supported:
// integers, defined(X)/defined X, !, &&, ||, comparison and arithmetic
// operators, parentheses, and macro expansion of remaining identifiers.
func (p *preprocessor) evalCond(toks []Token) (int64, error) {
	// First resolve defined(...) before macro expansion.
	var resolved []Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokIdent && t.Text == "defined" {
			j := i + 1
			name := ""
			if j < len(toks) && toks[j].Kind == TokPunct && toks[j].Text == "(" {
				if j+2 < len(toks) && toks[j+2].Kind == TokPunct && toks[j+2].Text == ")" {
					name = word(&toks[j+1])
					i = j + 2
				} else {
					return 0, fmt.Errorf("bad defined()")
				}
			} else if j < len(toks) {
				name = word(&toks[j])
				i = j
			}
			v := int64(0)
			if _, ok := p.macros.Get(name); ok {
				v = 1
			}
			resolved = append(resolved, Token{Kind: TokIntLit, Int: v})
			continue
		}
		resolved = append(resolved, t)
	}
	// Macro-expand the rest.
	sub := &preprocessor{files: p.files, macros: p.macros, maxWork: 10000}
	expanded, err := sub.fullExpand(resolved)
	if err != nil {
		return 0, err
	}
	// Remaining identifiers evaluate to 0 (C preprocessor rule).
	for i := range expanded {
		if expanded[i].Kind == TokIdent || expanded[i].Kind == TokKeyword {
			expanded[i] = Token{Kind: TokIntLit, Int: 0}
		}
	}
	e := &condEval{toks: expanded}
	v, err := e.orExpr()
	if err != nil {
		return 0, err
	}
	return v, nil
}

type condEval struct {
	toks []Token
	pos  int
}

func (e *condEval) peek() Token {
	if e.pos < len(e.toks) {
		return e.toks[e.pos]
	}
	return Token{Kind: TokEOF}
}

func (e *condEval) isPunct(s string) bool {
	t := e.peek()
	return t.Kind == TokPunct && t.Text == s
}

func (e *condEval) orExpr() (int64, error) {
	v, err := e.andExpr()
	if err != nil {
		return 0, err
	}
	for e.isPunct("||") {
		e.pos++
		w, err := e.andExpr()
		if err != nil {
			return 0, err
		}
		if v != 0 || w != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v, nil
}

func (e *condEval) andExpr() (int64, error) {
	v, err := e.cmpExpr()
	if err != nil {
		return 0, err
	}
	for e.isPunct("&&") {
		e.pos++
		w, err := e.cmpExpr()
		if err != nil {
			return 0, err
		}
		if v != 0 && w != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v, nil
}

func (e *condEval) cmpExpr() (int64, error) {
	v, err := e.addExpr()
	if err != nil {
		return 0, err
	}
	for {
		ops := []struct {
			s string
			f func(a, b int64) bool
		}{
			{"==", func(a, b int64) bool { return a == b }},
			{"!=", func(a, b int64) bool { return a != b }},
			{"<=", func(a, b int64) bool { return a <= b }},
			{">=", func(a, b int64) bool { return a >= b }},
			{"<", func(a, b int64) bool { return a < b }},
			{">", func(a, b int64) bool { return a > b }},
		}
		matched := false
		for _, op := range ops {
			if e.isPunct(op.s) {
				e.pos++
				w, err := e.addExpr()
				if err != nil {
					return 0, err
				}
				if op.f(v, w) {
					v = 1
				} else {
					v = 0
				}
				matched = true
				break
			}
		}
		if !matched {
			return v, nil
		}
	}
}

func (e *condEval) addExpr() (int64, error) {
	v, err := e.unary()
	if err != nil {
		return 0, err
	}
	for {
		switch {
		case e.isPunct("+"):
			e.pos++
			w, err := e.unary()
			if err != nil {
				return 0, err
			}
			v += w
		case e.isPunct("-"):
			e.pos++
			w, err := e.unary()
			if err != nil {
				return 0, err
			}
			v -= w
		case e.isPunct("*"):
			e.pos++
			w, err := e.unary()
			if err != nil {
				return 0, err
			}
			v *= w
		default:
			return v, nil
		}
	}
}

func (e *condEval) unary() (int64, error) {
	switch {
	case e.isPunct("!"):
		e.pos++
		v, err := e.unary()
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case e.isPunct("-"):
		e.pos++
		v, err := e.unary()
		return -v, err
	case e.isPunct("("):
		e.pos++
		v, err := e.orExpr()
		if err != nil {
			return 0, err
		}
		if !e.isPunct(")") {
			return 0, fmt.Errorf("missing ) in #if")
		}
		e.pos++
		return v, nil
	}
	t := e.peek()
	if t.Kind == TokIntLit || t.Kind == TokCharLit {
		e.pos++
		return t.Int, nil
	}
	return 0, fmt.Errorf("bad #if expression near %q", word(&t))
}

func tokensText(toks []Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch t.Kind {
		case TokStrLit:
			sb.WriteString(t.Str())
		case TokIntLit:
			fmt.Fprintf(&sb, "%d", t.Int)
		default:
			sb.WriteString(t.Text)
		}
	}
	return sb.String()
}
