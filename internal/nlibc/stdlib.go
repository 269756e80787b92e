package nlibc

import (
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/nativevm"
)

func f32bitsOf(f float64) uint32 { return math.Float32bits(float32(f)) }
func f64bitsOf(f float64) uint64 { return math.Float64bits(f) }

func addStdlib(t map[string]nativevm.LibFunc) {
	t["malloc"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(int64(m.Alloc.Malloc(c.Args[0].I))), nil
	}
	t["calloc"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		cnt, sz := c.Args[0].I, c.Args[1].I
		// C11 7.22.3.2: if cnt*sz overflows, calloc must fail — wrapping to
		// a small allocation is the classic exploitable bug. The negative
		// sentinel still reaches the allocator gate so the denied attempt is
		// counted (the fault plan's coordinate system is the call sequence).
		if cnt < 0 || sz < 0 || (sz != 0 && cnt > math.MaxInt64/sz) {
			m.Alloc.Malloc(-1)
			return nativevm.IntVal(0), nil
		}
		n := cnt * sz
		addr := m.Alloc.Malloc(n)
		if addr == 0 {
			return nativevm.IntVal(0), nil
		}
		for i := int64(0); i < n; i++ {
			m.Mem.StoreByte(addr+uint64(i), 0)
		}
		return nativevm.IntVal(int64(addr)), nil
	}
	// realloc follows glibc (DESIGN.md §10): realloc(NULL,n) == malloc(n);
	// realloc(p,0) frees p and returns NULL; a failed grow returns NULL and
	// leaves the old block untouched (C11 7.22.3.5).
	t["realloc"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		old := uint64(c.Args[0].I)
		size := c.Args[1].I
		if old == 0 {
			return nativevm.IntVal(int64(m.Alloc.Malloc(size))), nil
		}
		oldSize, ok := m.Alloc.SizeOf(old)
		if !ok {
			return nativevm.Value{}, &nativevm.GlibcAbort{What: "realloc(): invalid pointer", Addr: old}
		}
		if size == 0 {
			m.RetireHeapType(old)
			if err := m.Alloc.Free(old); err != nil {
				return nativevm.Value{}, err
			}
			return nativevm.IntVal(0), nil
		}
		addr := m.Alloc.Malloc(size)
		if addr == 0 {
			return nativevm.IntVal(0), nil // old block stays live and valid
		}
		n := oldSize
		if size < n {
			n = size
		}
		data, f := m.Mem.ReadBytes(old, n)
		if f != nil {
			return nativevm.Value{}, f
		}
		m.Mem.WriteBytes(addr, data)
		m.RetireHeapType(old)
		if err := m.Alloc.Free(old); err != nil {
			return nativevm.Value{}, err
		}
		return nativevm.IntVal(int64(addr)), nil
	}
	t["free"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		addr := uint64(c.Args[0].I)
		if addr == 0 {
			return nativevm.Value{}, nil
		}
		m.RetireHeapType(addr)
		if err := m.Alloc.Free(addr); err != nil {
			return nativevm.Value{}, err
		}
		return nativevm.Value{}, nil
	}
	t["exit"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.Value{}, exitErr(int(int32(c.Args[0].I)))
	}
	t["abort"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.Value{}, exitErr(134)
	}

	parseIntAt := func(m *nativevm.Machine, addr uint64) int64 {
		s, _ := m.Mem.CString(addr, 128)
		s = strings.TrimSpace(s)
		end := 0
		if end < len(s) && (s[end] == '-' || s[end] == '+') {
			end++
		}
		for end < len(s) && s[end] >= '0' && s[end] <= '9' {
			end++
		}
		v, _ := strconv.ParseInt(s[:end], 10, 64)
		return v
	}
	t["atoi"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(int64(int32(parseIntAt(m, uint64(c.Args[0].I))))), nil
	}
	t["atol"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(parseIntAt(m, uint64(c.Args[0].I))), nil
	}
	parseFloatAt := func(m *nativevm.Machine, addr uint64) float64 {
		s, _ := m.Mem.CString(addr, 128)
		s = strings.TrimSpace(s)
		for len(s) > 0 {
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				return v
			}
			s = s[:len(s)-1]
		}
		return 0
	}
	t["atof"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.FloatVal(parseFloatAt(m, uint64(c.Args[0].I))), nil
	}
	t["__ss_atof"] = t["atof"]
	t["strtod"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		// endptr support: advance over the float prefix.
		addr := uint64(c.Args[0].I)
		endp := uint64(c.Args[1].I)
		s, _ := m.Mem.CString(addr, 128)
		trimmed := strings.TrimLeft(s, " \t\n")
		skip := len(s) - len(trimmed)
		n := floatPrefixLen(trimmed)
		if endp != 0 {
			m.Mem.Store(endp, 8, uint64(addr)+uint64(skip+n))
		}
		v, _ := strconv.ParseFloat(trimmed[:n], 64)
		return nativevm.FloatVal(v), nil
	}
	t["strtol"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		addr := uint64(c.Args[0].I)
		endp := uint64(c.Args[1].I)
		base := int(c.Args[2].I)
		s, _ := m.Mem.CString(addr, 128)
		trimmed := strings.TrimLeft(s, " \t\n")
		skip := len(s) - len(trimmed)
		v, n := parsePrefixInt(trimmed, base)
		if endp != 0 {
			m.Mem.Store(endp, 8, uint64(addr)+uint64(skip+n))
		}
		return nativevm.IntVal(v), nil
	}
	t["abs"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		v := int32(c.Args[0].I)
		if v < 0 {
			v = -v
		}
		return nativevm.IntVal(int64(v)), nil
	}
	t["labs"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		v := c.Args[0].I
		if v < 0 {
			v = -v
		}
		return nativevm.IntVal(v), nil
	}
	t["rand"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		m.RandState = m.RandState*6364136223846793005 + 1442695040888963407
		return nativevm.IntVal(int64((m.RandState >> 33) & 0x7fffffff)), nil
	}
	t["srand"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		m.RandState = uint64(c.Args[0].I)
		return nativevm.Value{}, nil
	}
	t["getenv"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		name, f := m.Mem.CString(uint64(c.Args[0].I), 4096)
		if f != nil {
			return nativevm.Value{}, f
		}
		envp := m.EnvpAddr()
		if envp == 0 {
			return nativevm.IntVal(0), nil
		}
		for i := uint64(0); ; i++ {
			slot, f := m.Mem.Load(envp+8*i, 8)
			if f != nil || slot == 0 {
				return nativevm.IntVal(0), nil
			}
			kv, f := m.Mem.CString(slot, 8192)
			if f != nil {
				return nativevm.Value{}, f
			}
			for j := 0; j < len(kv); j++ {
				if kv[j] == '=' {
					if kv[:j] == name {
						return nativevm.IntVal(int64(slot) + int64(j) + 1), nil
					}
					break
				}
			}
		}
	}
	t["__ss_getenv"] = t["getenv"]
	t["clock"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(time.Since(processStart).Microseconds()), nil
	}

	t["qsort"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		base := uint64(c.Args[0].I)
		nmemb, size := c.Args[1].I, c.Args[2].I
		cmp := uint64(c.Args[3].I)
		// Precompiled qsort: moves bytes with raw accesses, calls back into
		// program code for comparisons.
		swap := func(i, j int64) {
			for k := int64(0); k < size; k++ {
				a, _ := m.Mem.LoadByte(base + uint64(i*size+k))
				b, _ := m.Mem.LoadByte(base + uint64(j*size+k))
				m.Mem.StoreByte(base+uint64(i*size+k), b)
				m.Mem.StoreByte(base+uint64(j*size+k), a)
			}
		}
		call := func(i, j int64) (int64, error) {
			r, err := m.CallAddr(cmp, []nativevm.Value{
				nativevm.IntVal(int64(base + uint64(i*size))),
				nativevm.IntVal(int64(base + uint64(j*size))),
			})
			return r.I, err
		}
		var rec func(lo, hi int64) error
		rec = func(lo, hi int64) error {
			if hi-lo < 1 {
				return nil
			}
			p := hi
			i := lo - 1
			for j := lo; j < hi; j++ {
				r, err := call(j, p)
				if err != nil {
					return err
				}
				if int32(r) <= 0 {
					i++
					swap(i, j)
				}
			}
			i++
			swap(i, hi)
			if err := rec(lo, i-1); err != nil {
				return err
			}
			return rec(i+1, hi)
		}
		if err := rec(0, nmemb-1); err != nil {
			return nativevm.Value{}, err
		}
		return nativevm.Value{}, nil
	}
	t["bsearch"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		key := uint64(c.Args[0].I)
		base := uint64(c.Args[1].I)
		nmemb, size := c.Args[2].I, c.Args[3].I
		cmp := uint64(c.Args[4].I)
		lo, hi := int64(0), nmemb-1
		for lo <= hi {
			mid := lo + (hi-lo)/2
			el := base + uint64(mid*size)
			r, err := m.CallAddr(cmp, []nativevm.Value{nativevm.IntVal(int64(key)), nativevm.IntVal(int64(el))})
			if err != nil {
				return nativevm.Value{}, err
			}
			switch {
			case int32(r.I) == 0:
				return nativevm.IntVal(int64(el)), nil
			case int32(r.I) < 0:
				hi = mid - 1
			default:
				lo = mid + 1
			}
		}
		return nativevm.IntVal(0), nil
	}

	// Variadic support for user-defined variadic functions compiled with
	// the bundled stdarg.h. get_vararg hands out raw addresses into the va
	// area; indexing past the end simply points further into the stack.
	t["__ss_count_varargs"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		if c.Frame == nil {
			return nativevm.IntVal(0), nil
		}
		return nativevm.IntVal(int64(c.Frame.VaCount)), nil
	}
	t["__ss_get_vararg"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		if c.Frame == nil {
			return nativevm.IntVal(0), nil
		}
		// A raw address into the caller's variadic area; indexing past the
		// end simply points further into the stack (no machine-level count).
		return nativevm.IntVal(int64(c.Frame.VaBase + uint64(8*c.Args[0].I))), nil
	}
	t["__ss_ftoa"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		buf := uint64(c.Args[0].I)
		v := c.Args[1].F
		prec := int(c.Args[2].I)
		kind := byte(c.Args[3].I)
		if kind != 'f' && kind != 'e' && kind != 'g' {
			kind = 'f'
		}
		s := strconv.FormatFloat(v, kind, prec, 64)
		if f := m.Mem.WriteBytes(buf, append([]byte(s), 0)); f != nil {
			return nativevm.Value{}, f
		}
		return nativevm.IntVal(int64(len(s))), nil
	}
}

var processStart = time.Now()

func floatPrefixLen(s string) int {
	n := 0
	if n < len(s) && (s[n] == '-' || s[n] == '+') {
		n++
	}
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	if n < len(s) && s[n] == '.' {
		n++
		for n < len(s) && s[n] >= '0' && s[n] <= '9' {
			n++
		}
	}
	if n < len(s) && (s[n] == 'e' || s[n] == 'E') {
		k := n + 1
		if k < len(s) && (s[k] == '-' || s[k] == '+') {
			k++
		}
		if k < len(s) && s[k] >= '0' && s[k] <= '9' {
			for k < len(s) && s[k] >= '0' && s[k] <= '9' {
				k++
			}
			n = k
		}
	}
	return n
}

func parsePrefixInt(s string, base int) (int64, int) {
	n := 0
	neg := false
	if n < len(s) && (s[n] == '-' || s[n] == '+') {
		neg = s[n] == '-'
		n++
	}
	if (base == 0 || base == 16) && n+1 < len(s) && s[n] == '0' && (s[n+1] == 'x' || s[n+1] == 'X') {
		base = 16
		n += 2
	} else if base == 0 && n < len(s) && s[n] == '0' {
		base = 8
	} else if base == 0 {
		base = 10
	}
	v := int64(0)
	for n < len(s) {
		var d int
		c := s[n]
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case c >= 'a' && c <= 'z':
			d = int(c-'a') + 10
		case c >= 'A' && c <= 'Z':
			d = int(c-'A') + 10
		default:
			d = 99
		}
		if d >= base {
			break
		}
		v = v*int64(base) + int64(d)
		n++
	}
	if neg {
		v = -v
	}
	return v, n
}

func addCtype(t map[string]nativevm.LibFunc) {
	pred := func(f func(byte) bool) nativevm.LibFunc {
		return func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
			if f(byte(c.Args[0].I)) {
				return nativevm.IntVal(1), nil
			}
			return nativevm.IntVal(0), nil
		}
	}
	isDig := func(b byte) bool { return b >= '0' && b <= '9' }
	isUp := func(b byte) bool { return b >= 'A' && b <= 'Z' }
	isLow := func(b byte) bool { return b >= 'a' && b <= 'z' }
	isAl := func(b byte) bool { return isUp(b) || isLow(b) }
	t["isdigit"] = pred(isDig)
	t["isalpha"] = pred(isAl)
	t["isalnum"] = pred(func(b byte) bool { return isAl(b) || isDig(b) })
	t["isspace"] = pred(func(b byte) bool {
		return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f'
	})
	t["isupper"] = pred(isUp)
	t["islower"] = pred(isLow)
	t["isxdigit"] = pred(func(b byte) bool { return isDig(b) || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F' })
	t["ispunct"] = pred(func(b byte) bool { return b > ' ' && b < 127 && !isAl(b) && !isDig(b) })
	t["isprint"] = pred(func(b byte) bool { return b >= ' ' && b < 127 })
	t["toupper"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		b := byte(c.Args[0].I)
		if isLow(b) {
			return nativevm.IntVal(int64(b - 'a' + 'A')), nil
		}
		return c.Args[0], nil
	}
	t["tolower"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		b := byte(c.Args[0].I)
		if isUp(b) {
			return nativevm.IntVal(int64(b - 'A' + 'a')), nil
		}
		return c.Args[0], nil
	}
}

func addMath(t map[string]nativevm.LibFunc) {
	m1 := func(f func(float64) float64) nativevm.LibFunc {
		return func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
			return nativevm.FloatVal(f(c.Args[0].F)), nil
		}
	}
	m2 := func(f func(a, b float64) float64) nativevm.LibFunc {
		return func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
			return nativevm.FloatVal(f(c.Args[0].F, c.Args[1].F)), nil
		}
	}
	t["sin"] = m1(math.Sin)
	t["cos"] = m1(math.Cos)
	t["tan"] = m1(math.Tan)
	t["asin"] = m1(math.Asin)
	t["acos"] = m1(math.Acos)
	t["atan"] = m1(math.Atan)
	t["exp"] = m1(math.Exp)
	t["log"] = m1(math.Log)
	t["log10"] = m1(math.Log10)
	t["sqrt"] = m1(math.Sqrt)
	t["floor"] = m1(math.Floor)
	t["ceil"] = m1(math.Ceil)
	t["fabs"] = m1(math.Abs)
	t["atan2"] = m2(math.Atan2)
	t["pow"] = m2(math.Pow)
	t["fmod"] = m2(math.Mod)
}
