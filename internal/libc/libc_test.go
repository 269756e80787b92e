package libc

import (
	"strings"
	"testing"
)

func TestFilesComplete(t *testing.T) {
	files := Files()
	for _, h := range Headers() {
		if files[h] == "" {
			t.Errorf("header %s empty", h)
		}
	}
	for _, src := range Sources() {
		if files[src] == "" {
			t.Errorf("source %s missing", src)
		}
	}
	// Core headers exist.
	for _, h := range []string{"stdio.h", "stdlib.h", "string.h", "stdarg.h", "ctype.h", "math.h"} {
		if files[h] == "" {
			t.Errorf("expected header %s", h)
		}
	}
}

func TestHeadersHaveGuards(t *testing.T) {
	files := Files()
	for _, h := range Headers() {
		if !strings.Contains(files[h], "#ifndef") {
			t.Errorf("%s lacks an include guard", h)
		}
	}
}

func TestStdargIsFig9(t *testing.T) {
	src := Files()["stdarg.h"]
	for _, want := range []string{"__ss_count_varargs", "__ss_get_vararg", "counter", "va_arg", "va_start"} {
		if !strings.Contains(src, want) {
			t.Errorf("stdarg.h missing %q (Fig. 9 structure)", want)
		}
	}
}

func TestStrlenIsByteWise(t *testing.T) {
	src := Files()["string.c"]
	idx := strings.Index(src, "size_t strlen")
	if idx < 0 {
		t.Fatal("strlen not found")
	}
	body := src[idx : idx+200]
	if strings.Contains(body, "long *") || strings.Contains(body, "8") {
		t.Errorf("safe strlen must be byte-wise, got:\n%s", body)
	}
}

func TestWrapProgramOrder(t *testing.T) {
	prog := WrapProgram("user.c", false)
	// libc sources first, user code last.
	if !strings.HasSuffix(strings.TrimSpace(prog), `#include "user.c"`) {
		t.Errorf("user code must come last:\n%s", prog)
	}
	for _, src := range Sources() {
		if !strings.Contains(prog, src) {
			t.Errorf("missing %s", src)
		}
	}
}

// TestFilesDefensiveCopies checks the memoization contract: each Files()
// call returns a fresh map, so CompileFor-style in-place inserts cannot
// alias across compilations, and the cached bundle itself stays pristine.
func TestFilesDefensiveCopies(t *testing.T) {
	a := Files()
	b := Files()
	if &a == &b {
		t.Fatal("identical map headers") // can't happen, but keep intent clear
	}
	a["user.c"] = "int main(void){return 0;}"
	a["stdio.h"] = "clobbered"
	if _, ok := b["user.c"]; ok {
		t.Error("insert into one Files() map leaked into another")
	}
	if b["stdio.h"] == "clobbered" {
		t.Error("overwrite of a bundled entry leaked into another call")
	}
	c := Files()
	if c["stdio.h"] == "clobbered" || c["stdio.h"] == "" {
		t.Error("cached bundle was corrupted by caller mutation")
	}
}

func TestFunctionCountStable(t *testing.T) {
	if FunctionCount() != FunctionCount() {
		t.Error("FunctionCount must be deterministic")
	}
}

func TestFunctionCount(t *testing.T) {
	n := FunctionCount()
	// The paper supports 126 functions; this bundle is smaller but must
	// stay substantial.
	if n < 40 {
		t.Errorf("libc defines only %d functions", n)
	}
	t.Logf("libc defines %d public C functions (paper: 126)", n)
}
