package asan

import (
	"sync"

	"repro/internal/core"
	"repro/internal/nativevm"
	"repro/internal/nlibc"
)

// Libc returns the precompiled libc under ASan's argument-checking
// interceptors. The overlay is built once per process over nlibc.Table and
// shared by every ASan machine: an interceptor finds its run's *Tool
// through the machine it is passed. The set below mirrors the historical
// ASan interceptor list as of the paper's evaluation:
//
//   - memory and string movers are fully range-checked,
//   - strlen/strcmp check the string range they traverse,
//   - printf's interceptor validates only pointer (%s) arguments — an int
//     passed where %ld is expected goes unnoticed (paper Fig. 12),
//   - strtok has NO interceptor (the paper found this and contributed one
//     upstream afterwards, LLVM rL298650 — this model predates the fix).
func Libc() map[string]nativevm.LibFunc { return libc() }

var libc = sync.OnceValue(func() map[string]nativevm.LibFunc { return interceptors(nlibc.Table()) })

func interceptors(base map[string]nativevm.LibFunc) map[string]nativevm.LibFunc {
	out := make(map[string]nativevm.LibFunc, len(base))
	for k, v := range base {
		out[k] = v
	}

	// intercept validates a call's arguments with check before the real
	// function runs. On a machine without an ASan tool it is transparent.
	intercept := func(name string, check func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError) {
		inner, ok := base[name]
		if !ok {
			return
		}
		out[name] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
			if t, ok := m.Tool().(*Tool); ok {
				if be := check(t, m, c); be != nil {
					be.Func = "asan:" + name
					return nativevm.Value{}, be
				}
			}
			return inner(m, c)
		}
	}

	// memcpy/memmove/memset: both ranges fully checked.
	for _, name := range []string{"memcpy", "memmove", "__builtin_memcpy"} {
		intercept(name, func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError {
			if be := t.CheckRange(uint64(c.Args[0].I), c.Args[2].I, core.Write); be != nil {
				return be
			}
			return t.CheckRange(uint64(c.Args[1].I), c.Args[2].I, core.Read)
		})
	}
	for _, name := range []string{"memset", "__builtin_memset"} {
		intercept(name, func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError {
			return t.CheckRange(uint64(c.Args[0].I), c.Args[2].I, core.Write)
		})
	}
	intercept("memcmp", func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError {
		if be := t.CheckRange(uint64(c.Args[0].I), c.Args[2].I, core.Read); be != nil {
			return be
		}
		return t.CheckRange(uint64(c.Args[1].I), c.Args[2].I, core.Read)
	})

	// String arguments: the range each NUL-terminated string spans.
	for name, which := range map[string][]int{
		"strlen": {0}, "strcmp": {0, 1}, "strncmp": {0, 1}, "strchr": {0},
		"strcat": {0, 1}, "strdup": {0}, "puts": {0}, "atoi": {0}, "atol": {0},
	} {
		intercept(name, func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError {
			for _, i := range which {
				if be := t.checkStr(m, uint64(c.Args[i].I)); be != nil {
					return be
				}
			}
			return nil
		})
	}
	// strcpy: source string readable, destination writable for its length.
	intercept("strcpy", func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError {
		src := uint64(c.Args[1].I)
		if be := t.checkStr(m, src); be != nil {
			return be
		}
		n := int64(0)
		for {
			b, f := m.Mem.LoadByte(src + uint64(n))
			if f != nil || b == 0 {
				break
			}
			n++
		}
		return t.CheckRange(uint64(c.Args[0].I), n+1, core.Write)
	})
	// NOTE: no strtok interceptor — deliberately (paper case study 2).

	// printf family: the interceptor walks the format string and validates
	// only the pointer conversions (%s). Integer-width mismatches and
	// missing arguments pass through unchecked.
	for name, fmtArg := range map[string]int{"printf": 0, "fprintf": 1} {
		intercept(name, func(t *Tool, m *nativevm.Machine, c *nativevm.CallCtx) *core.BugError {
			fmtStr, _ := m.Mem.CString(uint64(c.Args[fmtArg].I), 1<<16)
			va := c.VaBase
			slot := 0
			for i := 0; i+1 < len(fmtStr); i++ {
				if fmtStr[i] != '%' {
					continue
				}
				j := i + 1
				for j < len(fmtStr) && isFmtMod(fmtStr[j]) {
					j++
				}
				if j >= len(fmtStr) {
					break
				}
				conv := fmtStr[j]
				if conv == '%' {
					i = j
					continue
				}
				if conv == 's' {
					addr, _ := m.Mem.Load(va+uint64(8*slot), 8)
					if be := t.checkStr(m, addr); be != nil {
						return be
					}
				}
				slot++ // ints/floats advance the slot but are not checked
				i = j
			}
			return nil
		})
	}

	return out
}

// checkStr computes [addr, addr+len] of a NUL-terminated string by an
// unchecked scan, then checks that range in shadow — how real interceptors
// validate string arguments.
func (t *Tool) checkStr(m *nativevm.Machine, addr uint64) *core.BugError {
	if addr == 0 {
		return nil
	}
	n := int64(0)
	for {
		b, f := m.Mem.LoadByte(addr + uint64(n))
		if f != nil || b == 0 {
			break
		}
		n++
		if n > 1<<20 {
			break
		}
	}
	// The interceptor's scan is real work: charge it as fuel so repeated
	// giant-string validation honors the step budget.
	m.AddSteps(n / 8)
	return t.CheckRange(addr, n+1, core.Read)
}

func isFmtMod(c byte) bool {
	switch c {
	case '-', '+', ' ', '#', '.', '*', 'l', 'h', 'z',
		'0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return true
	}
	return false
}
