package nlibc

import "repro/internal/nativevm"

// hardRoom returns the destination's remaining capacity from dst under the
// hardened-libc policy, or -1 when unclamped (machine not hardened, object
// unknown, or no usable room — graceful degradation to ordinary behavior,
// mirroring the managed libc's __SS_HARDENED rule).
func hardRoom(m *nativevm.Machine, dst uint64) int64 {
	if !m.HardenedLibc() {
		return -1
	}
	if base, size, ok := m.ObjectExtent(dst); ok {
		if room := int64(base) + size - int64(dst); room > 0 {
			return room
		}
	}
	return -1
}

func addString(t map[string]nativevm.LibFunc) {
	t["strlen"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		// Word-wise, unchecked: the glibc fast path (P4).
		n, err := wordStrlen(m, uint64(c.Args[0].I))
		return nativevm.IntVal(n), err
	}
	t["strcpy"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		dst, src := uint64(c.Args[0].I), uint64(c.Args[1].I)
		room := hardRoom(m, dst)
		for i := uint64(0); ; i++ {
			b, err := a.loadByte(src + i)
			if err != nil {
				return nativevm.Value{}, err
			}
			if room >= 0 && int64(i)+1 >= room {
				// Hardened: out of destination room — terminate in place
				// instead of overflowing.
				if err := a.storeByte(dst+i, 0); err != nil {
					return nativevm.Value{}, err
				}
				break
			}
			if err := a.storeByte(dst+i, b); err != nil {
				return nativevm.Value{}, err
			}
			if b == 0 {
				break
			}
		}
		return c.Args[0], nil
	}
	t["strncpy"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		dst, src, n := uint64(c.Args[0].I), uint64(c.Args[1].I), c.Args[2].I
		var i int64
		for i = 0; i < n; i++ {
			b, err := a.loadByte(src + uint64(i))
			if err != nil {
				return nativevm.Value{}, err
			}
			if err := a.storeByte(dst+uint64(i), b); err != nil {
				return nativevm.Value{}, err
			}
			if b == 0 {
				break
			}
		}
		for ; i < n; i++ {
			if err := a.storeByte(dst+uint64(i), 0); err != nil {
				return nativevm.Value{}, err
			}
		}
		return c.Args[0], nil
	}
	t["strcat"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		dst, src := uint64(c.Args[0].I), uint64(c.Args[1].I)
		n, err := wordStrlen(m, dst)
		if err != nil {
			return nativevm.Value{}, err
		}
		room := hardRoom(m, dst)
		for i := uint64(0); ; i++ {
			b, err := a.loadByte(src + i)
			if err != nil {
				return nativevm.Value{}, err
			}
			if room >= 0 && n+int64(i)+1 >= room {
				if err := a.storeByte(dst+uint64(n)+i, 0); err != nil {
					return nativevm.Value{}, err
				}
				break
			}
			if err := a.storeByte(dst+uint64(n)+i, b); err != nil {
				return nativevm.Value{}, err
			}
			if b == 0 {
				break
			}
		}
		return c.Args[0], nil
	}
	t["strncat"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		dst, src, n := uint64(c.Args[0].I), uint64(c.Args[1].I), c.Args[2].I
		base, err := wordStrlen(m, dst)
		if err != nil {
			return nativevm.Value{}, err
		}
		var i int64
		for i = 0; i < n; i++ {
			b, err := a.loadByte(src + uint64(i))
			if err != nil {
				return nativevm.Value{}, err
			}
			if b == 0 {
				break
			}
			if err := a.storeByte(dst+uint64(base+i), b); err != nil {
				return nativevm.Value{}, err
			}
		}
		if err := a.storeByte(dst+uint64(base+i), 0); err != nil {
			return nativevm.Value{}, err
		}
		return c.Args[0], nil
	}
	strcmpImpl := func(m *nativevm.Machine, pa, pb uint64, n int64, bounded bool) (int64, error) {
		// Byte-wise but unchecked: comparison loops are also fast paths.
		for i := int64(0); !bounded || i < n; i++ {
			if err := m.ChargeSteps(1); err != nil {
				return 0, err
			}
			ba, f := m.Mem.LoadByte(pa + uint64(i))
			if f != nil {
				return 0, f
			}
			bb, f := m.Mem.LoadByte(pb + uint64(i))
			if f != nil {
				return 0, f
			}
			if ba != bb {
				return int64(ba) - int64(bb), nil
			}
			if ba == 0 {
				return 0, nil
			}
		}
		return 0, nil
	}
	t["strcmp"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		r, err := strcmpImpl(m, uint64(c.Args[0].I), uint64(c.Args[1].I), 0, false)
		return nativevm.IntVal(r), err
	}
	t["strncmp"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		r, err := strcmpImpl(m, uint64(c.Args[0].I), uint64(c.Args[1].I), c.Args[2].I, true)
		return nativevm.IntVal(r), err
	}
	t["strchr"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		s, ch := uint64(c.Args[0].I), byte(c.Args[1].I)
		for i := uint64(0); ; i++ {
			b, err := a.loadByte(s + i)
			if err != nil {
				return nativevm.Value{}, err
			}
			if b == ch {
				return nativevm.IntVal(int64(s + i)), nil
			}
			if b == 0 {
				return nativevm.IntVal(0), nil
			}
		}
	}
	t["strrchr"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		s, ch := uint64(c.Args[0].I), byte(c.Args[1].I)
		found := int64(0)
		for i := uint64(0); ; i++ {
			b, err := a.loadByte(s + i)
			if err != nil {
				return nativevm.Value{}, err
			}
			if b == ch {
				found = int64(s + i)
			}
			if b == 0 {
				return nativevm.IntVal(found), nil
			}
		}
	}
	t["strstr"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		hay, needle := uint64(c.Args[0].I), uint64(c.Args[1].I)
		nl, err := wordStrlen(m, needle)
		if err != nil {
			return nativevm.Value{}, err
		}
		if nl == 0 {
			return nativevm.IntVal(int64(hay)), nil
		}
		nb, f := m.Mem.ReadBytes(needle, nl)
		if f != nil {
			return nativevm.Value{}, f
		}
		for i := uint64(0); ; i++ {
			if err := m.ChargeSteps(1); err != nil {
				return nativevm.Value{}, err
			}
			b, f := m.Mem.LoadByte(hay + i)
			if f != nil {
				return nativevm.Value{}, f
			}
			if b == 0 {
				return nativevm.IntVal(0), nil
			}
			match := true
			for j := int64(0); j < nl; j++ {
				hb, f := m.Mem.LoadByte(hay + i + uint64(j))
				if f != nil {
					return nativevm.Value{}, f
				}
				if hb != nb[j] {
					match = false
					break
				}
			}
			if match {
				return nativevm.IntVal(int64(hay + i)), nil
			}
		}
	}
	inSet := func(m *nativevm.Machine, set uint64, ch byte) (bool, error) {
		// The delimiter scan reads the set string unchecked — this is the
		// strtok blind spot of Fig. 11 on native tools.
		for j := uint64(0); ; j++ {
			if err := m.ChargeSteps(1); err != nil {
				return false, err
			}
			d, f := m.Mem.LoadByte(set + j)
			if f != nil {
				return false, f
			}
			if d == 0 {
				return false, nil
			}
			if d == ch {
				return true, nil
			}
		}
	}
	t["strtok"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		s := uint64(c.Args[0].I)
		delim := uint64(c.Args[1].I)
		if s == 0 {
			s = m.StrtokSave
		}
		if s == 0 {
			return nativevm.IntVal(0), nil
		}
		for {
			b, f := m.Mem.LoadByte(s)
			if f != nil {
				return nativevm.Value{}, f
			}
			if b == 0 {
				m.StrtokSave = 0
				return nativevm.IntVal(0), nil
			}
			hit, err := inSet(m, delim, b)
			if err != nil {
				return nativevm.Value{}, err
			}
			if !hit {
				break
			}
			s++
		}
		start := s
		for {
			b, f := m.Mem.LoadByte(s)
			if f != nil {
				return nativevm.Value{}, f
			}
			if b == 0 {
				m.StrtokSave = 0
				return nativevm.IntVal(int64(start)), nil
			}
			hit, err := inSet(m, delim, b)
			if err != nil {
				return nativevm.Value{}, err
			}
			if hit {
				m.Mem.StoreByte(s, 0)
				m.StrtokSave = s + 1
				return nativevm.IntVal(int64(start)), nil
			}
			s++
		}
	}
	t["strdup"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		s := uint64(c.Args[0].I)
		n, err := wordStrlen(m, s)
		if err != nil {
			return nativevm.Value{}, err
		}
		dst := m.Alloc.Malloc(n + 1)
		if dst == 0 {
			return nativevm.IntVal(0), nil // allocation denied: strdup returns NULL
		}
		data, f := m.Mem.ReadBytes(s, n+1)
		if f != nil {
			return nativevm.Value{}, f
		}
		m.Mem.WriteBytes(dst, data)
		return nativevm.IntVal(int64(dst)), nil
	}
	spanImpl := func(m *nativevm.Machine, s, set uint64, reject bool) (int64, error) {
		n := int64(0)
		for {
			b, f := m.Mem.LoadByte(s + uint64(n))
			if f != nil {
				return 0, f
			}
			if b == 0 {
				return n, nil
			}
			hit, err := inSet(m, set, b)
			if err != nil {
				return 0, err
			}
			if hit == reject {
				return n, nil
			}
			n++
		}
	}
	t["strspn"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		n, err := spanImpl(m, uint64(c.Args[0].I), uint64(c.Args[1].I), false)
		return nativevm.IntVal(n), err
	}
	t["strcspn"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		n, err := spanImpl(m, uint64(c.Args[0].I), uint64(c.Args[1].I), true)
		return nativevm.IntVal(n), err
	}

	memcpyImpl := func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		dst, src, n := uint64(c.Args[0].I), uint64(c.Args[1].I), c.Args[2].I
		n = m.WriteCap(dst, n)
		if dst < src {
			for i := int64(0); i < n; i++ {
				b, err := a.loadByte(src + uint64(i))
				if err != nil {
					return nativevm.Value{}, err
				}
				if err := a.storeByte(dst+uint64(i), b); err != nil {
					return nativevm.Value{}, err
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				b, err := a.loadByte(src + uint64(i))
				if err != nil {
					return nativevm.Value{}, err
				}
				if err := a.storeByte(dst+uint64(i), b); err != nil {
					return nativevm.Value{}, err
				}
			}
		}
		return c.Args[0], nil
	}
	t["memcpy"] = memcpyImpl
	t["memmove"] = memcpyImpl
	t["__builtin_memcpy"] = memcpyImpl
	memsetImpl := func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		dst, ch, n := uint64(c.Args[0].I), byte(c.Args[1].I), c.Args[2].I
		n = m.WriteCap(dst, n)
		for i := int64(0); i < n; i++ {
			if err := a.storeByte(dst+uint64(i), ch); err != nil {
				return nativevm.Value{}, err
			}
		}
		return c.Args[0], nil
	}
	t["memset"] = memsetImpl
	t["__builtin_memset"] = memsetImpl
	t["memcmp"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		pa, pb, n := uint64(c.Args[0].I), uint64(c.Args[1].I), c.Args[2].I
		for i := int64(0); i < n; i++ {
			ba, err := a.loadByte(pa + uint64(i))
			if err != nil {
				return nativevm.Value{}, err
			}
			bb, err := a.loadByte(pb + uint64(i))
			if err != nil {
				return nativevm.Value{}, err
			}
			if ba != bb {
				return nativevm.IntVal(int64(ba) - int64(bb)), nil
			}
		}
		return nativevm.IntVal(0), nil
	}
	t["memchr"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		s, ch, n := uint64(c.Args[0].I), byte(c.Args[1].I), c.Args[2].I
		for i := int64(0); i < n; i++ {
			b, err := a.loadByte(s + uint64(i))
			if err != nil {
				return nativevm.Value{}, err
			}
			if b == ch {
				return nativevm.IntVal(int64(s + uint64(i))), nil
			}
		}
		return nativevm.IntVal(0), nil
	}
}
