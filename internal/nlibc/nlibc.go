// Package nlibc is the native engines' C library: implemented in Go over raw
// simulated memory, standing in for a precompiled, performance-optimized
// glibc. Its accesses are normally invisible to the tools (ASan does not
// instrument prebuilt libraries; Valgrind suppresses its word-wise string
// loops), which reproduces the paper's P4: bugs in arguments passed to libc
// escape the baseline tools unless an interceptor exists for that function.
package nlibc

import (
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/nativevm"
)

// Table returns the full native libc binding. Ordinary libc accesses go
// through the machine's libc checker (Machine.LibcChecker): the attached
// tool when it instruments libc, as Valgrind's binary translation does,
// and nobody for plain native and ASan. The word-wise strlen/strcmp fast
// paths are never checked: Valgrind famously whitelists them (paper §2.3,
// P4).
//
// The table is built once per process and shared by every machine,
// concurrently: callers must treat it as immutable (build a new map to
// wrap entries, as ASan's interceptor overlay does). A LibFunc therefore
// keeps no state of its own; per-run libc state (strtok's save pointer,
// the rand seed, ungetc's pushback) lives on the nativevm.Machine it is
// passed.
func Table() map[string]nativevm.LibFunc { return table() }

var table = sync.OnceValue(func() map[string]nativevm.LibFunc {
	t := map[string]nativevm.LibFunc{}
	addStdio(t)
	addString(t)
	addStdlib(t)
	addCtype(t)
	addMath(t)
	addTypeIdent(t)
	return t
})

// mem is a small access helper: libc's checked loads and stores.
type mem struct {
	m *nativevm.Machine
}

func (a mem) load(addr uint64, size int64) (int64, error) {
	// Fuel: libc loops are guest work. Charging one step per access keeps a
	// size-corrupted bulk operation inside the machine's step budget and
	// makes it observe cooperative cancellation (execution governor).
	if err := a.m.ChargeSteps(1); err != nil {
		return 0, err
	}
	if c := a.m.LibcChecker(); c != nil {
		if rep := c.Load(addr, size); rep != nil {
			return 0, rep
		}
	}
	v, f := a.m.Mem.Load(addr, size)
	if f != nil {
		return 0, f
	}
	return int64(v), nil
}

func (a mem) store(addr uint64, size int64, v int64) error {
	if err := a.m.ChargeSteps(1); err != nil {
		return err
	}
	if c := a.m.LibcChecker(); c != nil {
		if rep := c.Store(addr, size); rep != nil {
			return rep
		}
	}
	if f := a.m.Mem.Store(addr, size, uint64(v)); f != nil {
		return f
	}
	return nil
}

func (a mem) loadByte(addr uint64) (byte, error) {
	v, err := a.load(addr, 1)
	return byte(v), err
}

func (a mem) storeByte(addr uint64, b byte) error { return a.store(addr, 1, int64(b)) }

// wordStrlen is the performance-optimized strlen: it reads 8 bytes at a
// time, deliberately unchecked (Valgrind suppresses these loops; ASan never
// sees them). It can read past the terminator within the final word, and
// past the end of an unterminated buffer until it happens to hit a zero
// byte or an unmapped page.
func wordStrlen(m *nativevm.Machine, addr uint64) (int64, error) {
	n := int64(0)
	for {
		// Fuel: one step per scanned word, so an unterminated scan over a
		// large mapped region stays inside the machine's step budget.
		if err := m.ChargeSteps(1); err != nil {
			return 0, err
		}
		w, f := m.Mem.Load(addr+uint64(n), 8)
		if f != nil {
			// Fall back to byte loads near a page boundary, like real
			// implementations that align first.
			for {
				b, f2 := m.Mem.LoadByte(addr + uint64(n))
				if f2 != nil {
					return 0, f2
				}
				if b == 0 {
					return n, nil
				}
				n++
			}
		}
		for i := 0; i < 8; i++ {
			if byte(w>>(8*uint(i))) == 0 {
				return n + int64(i), nil
			}
		}
		n += 8
	}
}

// vaReader walks a variadic area: 8-byte slots read straight from the
// stack. Reading more slots than were passed just keeps walking the stack —
// no count exists at the machine level.
type vaReader struct {
	m    *nativevm.Machine
	addr uint64
}

func (v *vaReader) nextInt() int64 {
	raw, _ := v.m.Mem.Load(v.addr, 8)
	v.addr += 8
	return int64(raw)
}

func (v *vaReader) nextFloat() float64 {
	raw, _ := v.m.Mem.Load(v.addr, 8)
	v.addr += 8
	return math.Float64frombits(raw)
}

func exitErr(code int) error { return &core.ExitError{Code: code} }
