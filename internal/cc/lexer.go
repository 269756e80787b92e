// Package cc is a self-contained C front end: preprocessor, parser, semantic
// analysis, and SIR code generation. It plays the role Clang -O0 plays in the
// paper: it lowers C to IR without optimizing, so that source-level memory
// errors survive into the IR where the engines can observe them.
//
// The supported language is the C89/C99 subset exercised by the paper's
// corpus and benchmarks: all scalar types, pointers, arrays, structs, enums,
// typedefs, function pointers, variadic functions, string literals, the full
// expression and statement grammar (including switch, do/while, and the
// conditional operator), and a textual preprocessor with object- and
// function-like macros and conditional compilation.
package cc

import (
	"fmt"
	"math"
	"strings"
)

// TokKind classifies a token.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokIntLit
	TokFloatLit
	TokCharLit
	TokStrLit
	TokPunct
	TokNewline // only visible to the preprocessor
)

// Token is a lexical token with its source position. It is 40 bytes: a
// generated program lexes to about 700 of them, so every field is as
// small as the front end allows.
type Token struct {
	// Text is an identifier, keyword or punctuator, a decimal or octal
	// integer or a float literal's digits (suffix excluded), or a string
	// literal's source spelling, quotes included (Str decodes it). It is
	// empty for hex integers, characters, newlines and EOF.
	Text string
	// Int is an integer or character literal's value; a float literal
	// keeps its IEEE-754 bits here (Flt).
	Int  int64
	Line int32
	// File indexes the unit's file table (the preprocessor's names, which
	// the parser reads); 0 is the empty name.
	File  uint32
	Kind  TokKind
	flags tokFlags
	// hide names the macros this token came out of, which it must not
	// expand again: a hide set in the preprocessor's table, 0 when empty.
	hide hideID
}

// tokFlags are a token's one-bit facts.
type tokFlags uint8

const (
	// tokAdj: the token starts immediately after the previous one, with
	// no whitespace between (the preprocessor tells function-like from
	// object-like macro definitions by it).
	tokAdj tokFlags = 1 << iota
	tokUnsigned
	tokLong
)

// Adj reports whether t starts immediately after the previous token.
func (t *Token) Adj() bool { return t.flags&tokAdj != 0 }

// Unsigned and Long report an integer literal's "u" and "l" suffixes.
func (t *Token) Unsigned() bool { return t.flags&tokUnsigned != 0 }
func (t *Token) Long() bool     { return t.flags&tokLong != 0 }

// Flt returns a float literal's value.
func (t *Token) Flt() float64 { return math.Float64frombits(uint64(t.Int)) }

// Str returns a string literal's contents, its escapes decoded (without
// the quotes). The lexer checked every escape, so decoding cannot fail; a
// literal without escapes is a window of its spelling.
func (t *Token) Str() string {
	raw := t.Text[1 : len(t.Text)-1]
	if strings.IndexByte(raw, '\\') < 0 {
		return raw
	}
	b := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		ch, ni, _ := lexEscape(raw, i)
		b = append(b, ch)
		i = ni
	}
	return string(b)
}

var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true, "const": true,
	"continue": true, "default": true, "do": true, "double": true, "else": true,
	"enum": true, "extern": true, "float": true, "for": true, "goto": true,
	"if": true, "int": true, "long": true, "register": true, "return": true,
	"short": true, "signed": true, "sizeof": true, "static": true,
	"struct": true, "switch": true, "typedef": true, "union": true,
	"unsigned": true, "void": true, "volatile": true, "while": true,
	"inline": true,
}

// Lex tokenizes one source file. Newlines are preserved as TokNewline tokens
// because the preprocessor is line-oriented; it does not emit them. Its
// tokens' File is 0: the preprocessor lexes each file with its index in the
// unit's file table (lexFile).
func Lex(file, src string) ([]Token, error) { return lexFile(file, 0, src) }

// lexFile tokenizes the source of the file named file, whose index in the
// unit's file table is id.
func lexFile(file string, id uint32, src string) ([]Token, error) {
	// Generated programs average about 2.5 bytes a token, newlines
	// included, so half the source's length holds every token without
	// growing the slice.
	toks := make([]Token, 0, len(src)/2+1)
	line := 1
	i := 0
	n := len(src)
	adjacent := false
	emit := func(t Token) {
		t.File = id
		t.Line = int32(line)
		if adjacent {
			t.flags |= tokAdj
		}
		toks = append(toks, t)
		adjacent = true
	}
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			adjacent = false
			emit(Token{Kind: TokNewline})
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			adjacent = false
			i++
		case c == '\\' && i+1 < n && src[i+1] == '\n':
			// line continuation
			adjacent = false
			line++
			i += 2
		case c == '/' && i+1 < n && src[i+1] == '/':
			adjacent = false
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			adjacent = false
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return nil, fmt.Errorf("%s:%d: unterminated block comment", file, line)
			}
			i += 2
		case isAlpha(c):
			start := i
			for i < n && (isAlpha(src[i]) || isDigit(src[i])) {
				i++
			}
			word := src[start:i]
			if keywords[word] {
				emit(Token{Kind: TokKeyword, Text: word})
			} else {
				emit(Token{Kind: TokIdent, Text: word})
			}
		case isDigit(c) || c == '.' && i+1 < n && isDigit(src[i+1]):
			t, ni, err := lexNumber(src, i)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", file, line, err)
			}
			i = ni
			emit(t)
		case c == '"':
			start := i
			i++
			for i < n && src[i] != '"' {
				_, ni, err := lexEscape(src, i)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", file, line, err)
				}
				i = ni
			}
			if i >= n {
				return nil, fmt.Errorf("%s:%d: unterminated string literal", file, line)
			}
			i++
			emit(Token{Kind: TokStrLit, Text: src[start:i]})
		case c == '\'':
			i++
			if i >= n {
				return nil, fmt.Errorf("%s:%d: unterminated char literal", file, line)
			}
			ch, ni, err := lexEscape(src, i)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", file, line, err)
			}
			i = ni
			if i >= n || src[i] != '\'' {
				return nil, fmt.Errorf("%s:%d: unterminated char literal", file, line)
			}
			i++
			emit(Token{Kind: TokCharLit, Int: int64(ch)})
		default:
			w := punctLen(src, i)
			if w == 0 {
				return nil, fmt.Errorf("%s:%d: unexpected character %q", file, line, c)
			}
			emit(Token{Kind: TokPunct, Text: src[i : i+w]})
			i += w
		}
	}
	emit(Token{Kind: TokEOF})
	return toks, nil
}

// punctLen returns the length of the longest punctuator at src[i], or 0
// when none starts there.
func punctLen(src string, i int) int {
	var next, next2 byte
	if i+1 < len(src) {
		next = src[i+1]
	}
	if i+2 < len(src) {
		next2 = src[i+2]
	}
	switch c := src[i]; c {
	case '<', '>': // < << <= <<=, and the same for >
		switch {
		case next == c && next2 == '=':
			return 3
		case next == c || next == '=':
			return 2
		}
	case '.': // . ...
		if next == '.' && next2 == '.' {
			return 3
		}
	case '&', '|', '+': // & && &=, | || |=, + ++ +=
		if next == c || next == '=' {
			return 2
		}
	case '-': // - -- -= ->
		if next == '-' || next == '=' || next == '>' {
			return 2
		}
	case '=', '!', '*', '/', '%', '^': // = ==, != *= /= %= ^=
		if next == '=' {
			return 2
		}
	case '#': // # ##
		if next == '#' {
			return 2
		}
	case '~', '?', ':', ';', ',', '(', ')', '{', '}', '[', ']':
	default:
		return 0
	}
	return 1
}

func lexNumber(src string, i int) (Token, int, error) {
	n := len(src)
	start := i
	isFloat := false
	if src[i] == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
		i += 2
		for i < n && isHex(src[i]) {
			i++
		}
		var v uint64
		for _, c := range []byte(src[start+2 : i]) {
			v = v*16 + uint64(hexVal(c))
		}
		t := Token{Kind: TokIntLit, Int: int64(v)}
		i = lexIntSuffix(src, i, &t)
		return t, i, nil
	}
	for i < n && isDigit(src[i]) {
		i++
	}
	if i < n && src[i] == '.' {
		isFloat = true
		i++
		for i < n && isDigit(src[i]) {
			i++
		}
	}
	if i < n && (src[i] == 'e' || src[i] == 'E') {
		isFloat = true
		i++
		if i < n && (src[i] == '+' || src[i] == '-') {
			i++
		}
		for i < n && isDigit(src[i]) {
			i++
		}
	}
	text := src[start:i]
	if isFloat {
		var v float64
		if _, err := fmt.Sscanf(text, "%g", &v); err != nil {
			return Token{}, i, fmt.Errorf("bad float literal %q", text)
		}
		if i < n && (src[i] == 'f' || src[i] == 'F' || src[i] == 'l' || src[i] == 'L') {
			i++
		}
		return Token{Kind: TokFloatLit, Int: int64(math.Float64bits(v)), Text: text}, i, nil
	}
	var v uint64
	if strings.HasPrefix(text, "0") && len(text) > 1 {
		for _, c := range []byte(text[1:]) { // octal
			v = v*8 + uint64(c-'0')
		}
	} else {
		for _, c := range []byte(text) {
			v = v*10 + uint64(c-'0')
		}
	}
	t := Token{Kind: TokIntLit, Int: int64(v), Text: text}
	i = lexIntSuffix(src, i, &t)
	return t, i, nil
}

func lexIntSuffix(src string, i int, t *Token) int {
	for i < len(src) {
		switch src[i] {
		case 'u', 'U':
			t.flags |= tokUnsigned
			i++
		case 'l', 'L':
			t.flags |= tokLong
			i++
		default:
			return i
		}
	}
	return i
}

func lexEscape(src string, i int) (byte, int, error) {
	if src[i] != '\\' {
		return src[i], i + 1, nil
	}
	i++
	if i >= len(src) {
		return 0, i, fmt.Errorf("dangling backslash")
	}
	c := src[i]
	i++
	switch c {
	case 'n':
		return '\n', i, nil
	case 't':
		return '\t', i, nil
	case 'r':
		return '\r', i, nil
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := int(c - '0')
		for k := 0; k < 2 && i < len(src) && src[i] >= '0' && src[i] <= '7'; k++ {
			v = v*8 + int(src[i]-'0')
			i++
		}
		return byte(v), i, nil
	case 'x':
		v := 0
		for i < len(src) && isHex(src[i]) {
			v = v*16 + hexVal(src[i])
			i++
		}
		return byte(v), i, nil
	case '\\':
		return '\\', i, nil
	case '\'':
		return '\'', i, nil
	case '"':
		return '"', i, nil
	case 'a':
		return 7, i, nil
	case 'b':
		return 8, i, nil
	case 'f':
		return 12, i, nil
	case 'v':
		return 11, i, nil
	}
	return 0, i, fmt.Errorf("unknown escape \\%c", c)
}

func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
