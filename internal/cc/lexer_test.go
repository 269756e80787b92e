package cc

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func lexKinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex("test.c", src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	var out []Token
	for _, tok := range toks {
		if tok.Kind != TokNewline && tok.Kind != TokEOF {
			out = append(out, tok)
		}
	}
	return out
}

func TestLexIdentifiersAndKeywords(t *testing.T) {
	toks := lexKinds(t, "int foo _bar2 return while x9")
	wantKinds := []TokKind{TokKeyword, TokIdent, TokIdent, TokKeyword, TokKeyword, TokIdent}
	wantText := []string{"int", "foo", "_bar2", "return", "while", "x9"}
	if len(toks) != len(wantKinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(wantKinds))
	}
	for i := range toks {
		if toks[i].Kind != wantKinds[i] || toks[i].Text != wantText[i] {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, wantKinds[i], wantText[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src      string
		intVal   int64
		fltVal   float64
		isFloat  bool
		unsigned bool
		long     bool
	}{
		{"42", 42, 0, false, false, false},
		{"0", 0, 0, false, false, false},
		{"0x1f", 31, 0, false, false, false},
		{"0XFF", 255, 0, false, false, false},
		{"017", 15, 0, false, false, false},
		{"42u", 42, 0, false, true, false},
		{"42L", 42, 0, false, false, true},
		{"42ul", 42, 0, false, true, true},
		{"3.5", 0, 3.5, true, false, false},
		{"1e3", 0, 1000, true, false, false},
		{"2.5e-2", 0, 0.025, true, false, false},
		{".5", 0, 0.5, true, false, false},
	}
	for _, c := range cases {
		toks := lexKinds(t, c.src)
		if len(toks) != 1 {
			t.Errorf("%q: got %d tokens", c.src, len(toks))
			continue
		}
		tok := toks[0]
		if c.isFloat {
			if tok.Kind != TokFloatLit || tok.Flt() != c.fltVal {
				t.Errorf("%q: got (%v, %g)", c.src, tok.Kind, tok.Flt())
			}
		} else {
			if tok.Kind != TokIntLit || tok.Int != c.intVal || tok.Unsigned() != c.unsigned || tok.Long() != c.long {
				t.Errorf("%q: got (%v, %d, u=%v l=%v)", c.src, tok.Kind, tok.Int, tok.Unsigned(), tok.Long())
			}
		}
	}
}

func TestLexStringsAndChars(t *testing.T) {
	toks := lexKinds(t, `"hi\n" "a\tb" '\0' 'x' '\x41' '\n'`)
	if toks[0].Str() != "hi\n" || toks[1].Str() != "a\tb" {
		t.Errorf("string escapes wrong: %q %q", toks[0].Str(), toks[1].Str())
	}
	wantChars := []int64{0, 'x', 0x41, '\n'}
	for i, w := range wantChars {
		if toks[2+i].Kind != TokCharLit || toks[2+i].Int != w {
			t.Errorf("char %d = %d, want %d", i, toks[2+i].Int, w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "a /* block\ncomment */ b // line\nc")
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" || toks[2].Text != "c" {
		t.Errorf("comments not skipped: %v", toks)
	}
}

func TestLexPunctuatorsLongestMatch(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string
	}{
		{"<<= >>= ... << >> <= >= == != && || ++ -- -> += <",
			[]string{"<<=", ">>=", "...", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--", "->", "+=", "<"}},
		{"-= *= /= %= &= |= ^= ## + - * / % & | ^ ~ ! = > ? : ; , . ( ) { } [ ] #",
			[]string{"-=", "*=", "/=", "%=", "&=", "|=", "^=", "##", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "=", ">", "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "#"}},
		// Adjacent punctuators split longest-first, left to right.
		{"<<<= .. ->> +++ &&& ##= !==", []string{"<<", "<=", ".", ".", "->", ">", "++", "+", "&&", "&", "##", "=", "!=", "="}},
	} {
		toks := lexKinds(t, c.src)
		var got []string
		for _, tok := range toks {
			got = append(got, tok.Text)
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%q lexed as %q, want %q", c.src, got, c.want)
		}
	}
}

// TestTokenLayout pins the token's size budget. A generated program lexes
// to about 700 tokens and the preprocessor's output is a window of the
// lexed slice, so each byte shows up in every cold compile: the 96-byte
// token of a string per file name, a map per expanded token and separate
// int, float and string-literal fields cost 84 KB of lexing and 69 KB of
// output per program.
func TestTokenLayout(t *testing.T) {
	if n := unsafe.Sizeof(Token{}); n > 40 {
		t.Errorf("unsafe.Sizeof(Token{}) = %d, budget 40", n)
	}
}

func TestLexAdjacency(t *testing.T) {
	toks := lexKinds(t, "f(x) g (y)")
	// f '(' adjacent; g '(' not adjacent.
	if !toks[1].Adj() {
		t.Error("f( should be adjacent")
	}
	if toks[5].Adj() {
		t.Error("g ( should not be adjacent")
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("f.c", "a\nb\n\nc")
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			lines = append(lines, int(tok.Line))
		}
	}
	want := []int{1, 2, 4}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("ident %d at line %d, want %d", i, lines[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{"\"unterminated", "'a", "/* unterminated", "`"}
	for _, src := range bad {
		if _, err := Lex("f.c", src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexLineContinuation(t *testing.T) {
	toks := lexKinds(t, "ab\\\ncd")
	// A continuation splices lines but not tokens (we lex simple idents
	// separately, which is fine for the macro bodies that use it).
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
}

// TestLexNeverPanics throws random byte strings at the lexer.
func TestLexNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Errors are fine; panics are not (quick.Check turns a panic into
		// a test failure automatically).
		_, _ = Lex("fuzz.c", string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLexIntRoundTrip checks decimal literals lex to their value.
func TestLexIntRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		toks, err := Lex("t.c", fmtInt(int64(v)))
		if err != nil || len(toks) < 1 {
			return false
		}
		return toks[0].Kind == TokIntLit && toks[0].Int == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
