package nativevm_test

import (
	"fmt"
	"testing"

	sulong "repro"
	"repro/internal/ir"
	"repro/internal/nativemem"
	"repro/internal/nativevm"
)

// TestStackGuardPageTraps pins the unmapped page between the top of the
// stack and the argv block: mapping the stack and the argv block side by
// side must never make it accessible, so a guest read and a guest write of
// it trap under every native tool.
func TestStackGuardPageTraps(t *testing.T) {
	for _, eng := range []sulong.Engine{sulong.EngineNative, sulong.EngineASan, sulong.EngineMemcheck} {
		for _, tc := range []struct {
			addr  uint64
			write bool
			body  string
		}{
			{nativevm.StackTop, false, "%r1 = load i8, %r0\n  %r2 = sext i8 %r1 to i32\n  ret i32 %r2"},
			{nativevm.ArgvBase - 8, true, "store i64 1, %r0\n  ret i32 0"},
		} {
			mod, err := ir.Parse(fmt.Sprintf(`module "t"
func @main fn() i32 regs 3 {
entry:
  %%r0 = inttoptr i64 %d to ptr
  %s
}
`, tc.addr, tc.body))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sulong.NativeConfig(eng)
			if err != nil {
				t.Fatal(err)
			}
			m, err := nativevm.New(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			if f, ok := err.(*nativemem.Fault); !ok || f.Addr != tc.addr || f.Write != tc.write {
				t.Errorf("%v: access of the guard page at %#x (write %v): got %v, want a trap",
					eng, tc.addr, tc.write, err)
			}
			if !m.Mem.Mapped(nativevm.StackTop-8, 8) || !m.Mem.Mapped(nativevm.ArgvBase, 8) {
				t.Errorf("%v: the stack top and the argv block must stay mapped", eng)
			}
		}
	}
}
