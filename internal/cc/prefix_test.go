package cc

import (
	"testing"

	"repro/internal/libc"
)

// TestLibcDeclaresPrototypes pins what lets a prototype complete an
// unprototyped declaration that code already uses: libc declares every
// function with a prototype, so no such completion can change code lowered
// into libc's prefix.
func TestLibcDeclaresPrototypes(t *testing.T) {
	for _, hardened := range []bool{false, true} {
		prelude := libc.Prelude(hardened)
		empty, err := NewPrefix(libc.UnitFile, Predefined(nil))
		if err != nil {
			t.Fatal(err)
		}
		u := empty.Continue(func(name string) (string, bool) {
			if name == libc.UnitFile {
				return prelude, true
			}
			return libc.File(name)
		})
		if err := u.Preprocess(libc.UnitFile); err != nil {
			t.Fatal(err)
		}
		if err := u.Parse(); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Lower(); err != nil {
			t.Fatal(err)
		}
		for name, sig := range u.cg.funcs {
			if sig.Unprototyped {
				t.Errorf("hardened %v: libc declares %s without a prototype", hardened, name)
			}
		}
	}
}
