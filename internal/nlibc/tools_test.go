package nlibc_test

import (
	"testing"

	"repro/internal/asan"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/memcheck"
	"repro/internal/nativevm"
	"repro/internal/nlibc"
)

// TestLibcSeenOnlyByMemcheck pins who sees libc's own accesses: a heap
// overflow inside strncpy, which reaches memory through libc's checked
// stores and has no ASan interceptor. Memcheck instruments libc like the
// program and reports the write into the heap redzone; ASan never sees the
// prebuilt libc and misses it, as does bare native (paper P4).
func TestLibcSeenOnlyByMemcheck(t *testing.T) {
	mod, err := ir.Parse(`module "t"
global @src [17 x i8] = bytes "0123456789abcdef\x00"
func @main fn() i32 regs 1 { entry: ret i32 0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cfg    nativevm.Config
		report bool
	}{
		{"native", nativevm.Config{Libc: nlibc.Table()}, false},
		{"asan", nativevm.Config{Tool: asan.New(asan.DefaultOptions()), Libc: asan.Libc()}, false},
		{"memcheck", nativevm.Config{Tool: memcheck.New(), Libc: nlibc.Table()}, true},
	} {
		m, err := nativevm.New(mod, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := m.Alloc.Malloc(8)
		call := &nativevm.CallCtx{Args: []nativevm.Value{
			nativevm.IntVal(int64(dst)), nativevm.IntVal(int64(m.GlobalAddr("src"))), nativevm.IntVal(16),
		}}
		_, err = tc.cfg.Libc["strncpy"](m, call)
		be, reported := err.(*core.BugError)
		if reported != tc.report || (err != nil && !reported) {
			t.Errorf("%s: strncpy 16 bytes into an 8-byte block: err = %v, want a report: %v", tc.name, err, tc.report)
			continue
		}
		if reported && (be.Kind != core.OutOfBounds || be.Access != core.Write || be.Mem != core.HeapMem) {
			t.Errorf("%s: report = %v, want a heap out-of-bounds write", tc.name, be)
		}
	}
}
