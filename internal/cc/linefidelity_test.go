package cc

import (
	"testing"

	"repro/internal/ir"
)

// TestLineFidelityNoZeroLines compiles a multi-function fixture exercising
// every statement and expression form, then asserts that every emitted
// instruction carries a source line. Historically calls, branches, spills,
// loads, short-circuit scaffolding, and frees leaked Line == 0, which left
// diagnostics without locations.
func TestLineFidelityNoZeroLines(t *testing.T) {
	src := `struct P { int x; int y; };
void free(void *p);
void *malloc(unsigned long n);

int helper(int a, int b) {
    int r = a + b;
    if (r > 10 && a < b)
        r = r - 1;
    return r;
}

int looper(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc += i;
        if (acc > 100)
            break;
    }
    while (n > 0) {
        n--;
        continue;
    }
    switch (acc) {
    case 0:
        acc = 1;
        break;
    default:
        acc = acc ? acc : -acc;
    }
    return acc;
}

int main(void) {
    struct P p;
    int arr[4];
    int *h = malloc(16);
    p.x = helper(1, 2);
    p.y = looper(p.x);
    arr[0] = p.x + p.y;
    h[1] = arr[0];
    free(h);
    return arr[0] - h[1];
}
`
	m, err := Compile("fix.c", map[string]string{"fix.c": src}, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		for bi, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Line == 0 {
					t.Errorf("%s block %d instr %d (op %d) has Line == 0",
						f.Name, bi, i, in.Op)
				}
			}
		}
	}
}

// TestLineFidelityExactLines pins down the exact lines of the accesses that
// matter most for bug reports: the call, the store through the heap pointer,
// and the free.
func TestLineFidelityExactLines(t *testing.T) {
	src := `void free(void *p);
void *malloc(unsigned long n);
int main(void) {
    int *h = malloc(8);
    h[0] = 1;
    free(h);
    return h[0];
}
`
	m, err := Compile("fix.c", map[string]string{"fix.c": src}, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := m.Func("main")
	if f == nil {
		t.Fatal("no main")
	}
	wantCall := func(callee string, line int) {
		t.Helper()
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op == ir.OpCall && in.Ext.Callee.Sym == callee {
					if int(in.Line) != line {
						t.Errorf("call %s: Line = %d, want %d", callee, in.Line, line)
					}
					return
				}
			}
		}
		t.Errorf("no call to %s found", callee)
	}
	wantCall("malloc", 4)
	wantCall("free", 6)
	// The store h[0] = 1 on line 5.
	found := false
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == ir.OpStore && in.Line == 5 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no store with Line 5 (h[0] = 1)")
	}
}
