package nlibc

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/nativevm"
)

// runC builds a tiny IR program that calls one libc function and returns
// its result; most coverage of nlibc comes from the repository-level
// differential suite, so these tests focus on the Go-level contracts.
func newMachine(t *testing.T, src string, stdin string) *nativevm.Machine {
	t.Helper()
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nativevm.New(mod, nativevm.Config{
		Libc:  Table(),
		Stdin: strings.NewReader(stdin),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWordStrlenReadsPastNUL(t *testing.T) {
	m := newMachine(t, `module "t"
global @s [4 x i8] = bytes "abc\x00"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`, "")
	n, err := wordStrlen(m, m.GlobalAddr("s"))
	if err != nil || n != 3 {
		t.Errorf("strlen = %d, %v", n, err)
	}
	// An unterminated string keeps scanning into adjacent memory without
	// error (the word-wise blind spot).
	m2 := newMachine(t, `module "t"
global @u [4 x i8] = bytes "abcd"
global @next [8 x i8] = bytes "efg\x00zzzz"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`, "")
	n, err = wordStrlen(m2, m2.GlobalAddr("u"))
	if err != nil {
		t.Fatalf("unterminated strlen faulted: %v", err)
	}
	if n <= 4 {
		t.Errorf("unterminated strlen should run into the neighbour, got %d", n)
	}
}

func TestTableCompleteness(t *testing.T) {
	tab := Table()
	must := []string{
		"printf", "sprintf", "snprintf", "fprintf", "scanf", "fscanf",
		"puts", "gets", "fgets", "putchar", "getchar", "fwrite", "fread",
		"strlen", "strcpy", "strncpy", "strcat", "strcmp", "strncmp",
		"strchr", "strrchr", "strstr", "strtok", "strdup",
		"memcpy", "memmove", "memset", "memcmp", "memchr",
		"malloc", "calloc", "realloc", "free", "exit", "abort",
		"atoi", "atol", "atof", "strtol", "strtod", "abs", "labs",
		"rand", "srand", "qsort", "bsearch", "getenv", "clock",
		"isdigit", "isalpha", "isspace", "toupper", "tolower",
		"sin", "cos", "sqrt", "pow", "floor", "fabs",
		"__builtin_memcpy", "__builtin_memset",
		"__ss_putchar", "__ss_getchar", "__ss_fwrite",
		"__ss_count_varargs", "__ss_get_vararg", "__ss_ftoa", "__ss_atof",
	}
	for _, name := range must {
		if tab[name] == nil {
			t.Errorf("nlibc missing %q", name)
		}
	}
	t.Logf("nlibc binds %d functions", len(tab))
}

func TestParsePrefixInt(t *testing.T) {
	cases := []struct {
		s    string
		base int
		v    int64
		n    int
	}{
		{"42", 10, 42, 2},
		{"-17", 10, -17, 3},
		{"ff", 16, 255, 2},
		{"0x10", 0, 16, 4},
		{"0755", 0, 493, 4},
		{"12ab", 10, 12, 2},
		{"", 10, 0, 0},
	}
	for _, c := range cases {
		v, n := parsePrefixInt(c.s, c.base)
		if v != c.v || n != c.n {
			t.Errorf("parsePrefixInt(%q,%d) = (%d,%d), want (%d,%d)", c.s, c.base, v, n, c.v, c.n)
		}
	}
}

func TestFloatPrefixLen(t *testing.T) {
	cases := []struct {
		s string
		n int
	}{
		{"1.5", 3},
		{"-2.25e3xyz", 7},
		{"42", 2},
		{"1e", 1}, // dangling exponent not consumed
		{"abc", 0},
	}
	for _, c := range cases {
		if got := floatPrefixLen(c.s); got != c.n {
			t.Errorf("floatPrefixLen(%q) = %d, want %d", c.s, got, c.n)
		}
	}
}
