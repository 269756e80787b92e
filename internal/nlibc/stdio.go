package nlibc

import (
	"strconv"
	"strings"

	"repro/internal/nativevm"
)

func addStdio(t map[string]nativevm.LibFunc) {
	getchar := func(m *nativevm.Machine) int64 {
		if m.Ungot != -2 {
			c := m.Ungot
			m.Ungot = -2
			return int64(c)
		}
		b, err := m.Stdin.ReadByte()
		if err != nil {
			return -1
		}
		return int64(b)
	}

	t["putchar"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		m.Stdout.WriteByte(byte(c.Args[0].I))
		return nativevm.IntVal(c.Args[0].I & 0xff), nil
	}
	t["__ss_putchar"] = t["putchar"]
	t["getchar"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(getchar(m)), nil
	}
	t["__ss_getchar"] = t["getchar"]
	t["fgetc"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(getchar(m)), nil
	}
	t["ungetc"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		// C11 7.21.7.10p3: ungetc(EOF, f) is a no-op that returns EOF.
		// Storing it would make the next getchar spuriously report
		// end-of-stream (Ungot == -1 is indistinguishable from EOF).
		ch := int(c.Args[0].I)
		if ch == -1 {
			return nativevm.IntVal(-1), nil
		}
		m.Ungot = ch & 0xff
		return nativevm.IntVal(int64(ch & 0xff)), nil
	}
	t["puts"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		s := uint64(c.Args[0].I)
		n, err := wordStrlen(m, s)
		if err != nil {
			return nativevm.Value{}, err
		}
		data, f := m.Mem.ReadBytes(s, n)
		if f != nil {
			return nativevm.Value{}, f
		}
		m.Stdout.Write(data)
		m.Stdout.WriteByte('\n')
		return nativevm.IntVal(0), nil
	}
	t["fputc"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		m.Stdout.WriteByte(byte(c.Args[0].I))
		return c.Args[0], nil
	}
	t["fputs"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		s := uint64(c.Args[0].I)
		n, err := wordStrlen(m, s)
		if err != nil {
			return nativevm.Value{}, err
		}
		data, f := m.Mem.ReadBytes(s, n)
		if f != nil {
			return nativevm.Value{}, f
		}
		m.Stdout.Write(data)
		return nativevm.IntVal(0), nil
	}
	t["gets"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		s := uint64(c.Args[0].I)
		i := uint64(0)
		for {
			ch := getchar(m)
			if ch == -1 && i == 0 {
				return nativevm.IntVal(0), nil
			}
			if ch == -1 || ch == '\n' {
				break
			}
			if err := a.storeByte(s+i, byte(ch)); err != nil {
				return nativevm.Value{}, err
			}
			i++
		}
		if err := a.storeByte(s+i, 0); err != nil {
			return nativevm.Value{}, err
		}
		return c.Args[0], nil
	}
	t["fgets"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		s, size := uint64(c.Args[0].I), c.Args[1].I
		if size <= 0 {
			return nativevm.IntVal(0), nil
		}
		i := int64(0)
		for i < size-1 {
			ch := getchar(m)
			if ch == -1 {
				break
			}
			if err := a.storeByte(s+uint64(i), byte(ch)); err != nil {
				return nativevm.Value{}, err
			}
			i++
			if ch == '\n' {
				break
			}
		}
		if i == 0 {
			return nativevm.IntVal(0), nil
		}
		if err := a.storeByte(s+uint64(i), 0); err != nil {
			return nativevm.Value{}, err
		}
		return c.Args[0], nil
	}
	t["fwrite"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		p, size, nmemb := uint64(c.Args[0].I), c.Args[1].I, c.Args[2].I
		data, f := m.Mem.ReadBytes(p, size*nmemb)
		if f != nil {
			return nativevm.Value{}, f
		}
		m.Stdout.Write(data)
		return nativevm.IntVal(nmemb), nil
	}
	t["__ss_fwrite"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		p, n := uint64(c.Args[0].I), c.Args[1].I
		data, f := m.Mem.ReadBytes(p, n)
		if f != nil {
			return nativevm.Value{}, f
		}
		m.Stdout.Write(data)
		return nativevm.IntVal(n), nil
	}
	t["fread"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		a := mem{m}
		p, size, nmemb := uint64(c.Args[0].I), c.Args[1].I, c.Args[2].I
		total := size * nmemb
		for i := int64(0); i < total; i++ {
			ch := getchar(m)
			if ch == -1 {
				return nativevm.IntVal(i / size), nil
			}
			if err := a.storeByte(p+uint64(i), byte(ch)); err != nil {
				return nativevm.Value{}, err
			}
		}
		return nativevm.IntVal(nmemb), nil
	}
	t["fopen"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(0), nil
	}
	t["fclose"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return nativevm.IntVal(0), nil
	}
	t["fflush"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		m.Stdout.Flush()
		return nativevm.IntVal(0), nil
	}

	t["printf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return printfCommon(m, c, uint64(c.Args[0].I), &nativevm.CallCtx{VaBase: c.VaBase}, nil, -1)
	}
	t["vprintf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		// va_list built by user code via stdarg.h: a pointer to a
		// struct{counter, args}; approximate by treating it as a va area.
		return printfCommon(m, c, uint64(c.Args[0].I), &nativevm.CallCtx{VaBase: uint64(c.Args[1].I)}, nil, -1)
	}
	t["fprintf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return printfCommon(m, c, uint64(c.Args[1].I), &nativevm.CallCtx{VaBase: c.VaBase}, nil, -1)
	}
	t["sprintf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		buf := uint64(c.Args[0].I)
		return printfCommon(m, c, uint64(c.Args[1].I), &nativevm.CallCtx{VaBase: c.VaBase}, &buf, -1)
	}
	t["snprintf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		buf := uint64(c.Args[0].I)
		return printfCommon(m, c, uint64(c.Args[2].I), &nativevm.CallCtx{VaBase: c.VaBase}, &buf, c.Args[1].I)
	}

	scanfImpl := func(m *nativevm.Machine, fmtAddr uint64, va *vaReader) (nativevm.Value, error) {
		a := mem{m}
		assigned := int64(0)
		fmtStr, f := m.Mem.CString(fmtAddr, 4096)
		if f != nil {
			return nativevm.Value{}, f
		}
		peek := func() int64 {
			ch := getchar(m)
			if ch != -1 {
				m.Ungot = int(ch)
			}
			return ch
		}
		skipSpace := func() {
			for {
				ch := getchar(m)
				if ch == -1 {
					return
				}
				if ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r' {
					m.Ungot = int(ch)
					return
				}
			}
		}
		i := 0
		for i < len(fmtStr) {
			ch := fmtStr[i]
			if ch == ' ' || ch == '\t' || ch == '\n' {
				i++
				continue
			}
			if ch != '%' {
				skipSpace()
				in := getchar(m)
				if in != int64(ch) {
					if in != -1 {
						m.Ungot = int(in)
					}
					return nativevm.IntVal(assigned), nil
				}
				i++
				continue
			}
			i++
			longMod := false
			for i < len(fmtStr) && (fmtStr[i] == 'l' || fmtStr[i] == 'h' || fmtStr[i] == 'z') {
				if fmtStr[i] == 'l' {
					longMod = true
				}
				i++
			}
			if i >= len(fmtStr) {
				break
			}
			conv := fmtStr[i]
			i++
			switch conv {
			case 'd', 'u', 'i':
				skipSpace()
				var sb strings.Builder
				in := getchar(m)
				if in == '-' || in == '+' {
					sb.WriteByte(byte(in))
					in = getchar(m)
				}
				for in >= '0' && in <= '9' {
					sb.WriteByte(byte(in))
					in = getchar(m)
				}
				if in != -1 {
					m.Ungot = int(in)
				}
				v, err := strconv.ParseInt(sb.String(), 10, 64)
				if err != nil {
					return nativevm.IntVal(assigned), nil
				}
				size := int64(4)
				if longMod {
					size = 8
				}
				if err := a.store(uint64(va.nextInt()), size, v); err != nil {
					return nativevm.Value{}, err
				}
				assigned++
			case 'f', 'e', 'g':
				skipSpace()
				var sb strings.Builder
				in := getchar(m)
				for in == '-' || in == '+' || in == '.' || in == 'e' || in == 'E' || in >= '0' && in <= '9' {
					sb.WriteByte(byte(in))
					in = getchar(m)
				}
				if in != -1 {
					m.Ungot = int(in)
				}
				fv, err := strconv.ParseFloat(sb.String(), 64)
				if err != nil {
					return nativevm.IntVal(assigned), nil
				}
				addr := uint64(va.nextInt())
				if longMod {
					if err := a.store(addr, 8, int64(f64bitsOf(fv))); err != nil {
						return nativevm.Value{}, err
					}
				} else {
					if err := a.store(addr, 4, int64(f32bitsOf(fv))); err != nil {
						return nativevm.Value{}, err
					}
				}
				assigned++
			case 's':
				skipSpace()
				out := uint64(va.nextInt())
				k := uint64(0)
				if peek() == -1 {
					if assigned == 0 {
						return nativevm.IntVal(-1), nil
					}
					return nativevm.IntVal(assigned), nil
				}
				for {
					in := getchar(m)
					if in == -1 || in == ' ' || in == '\t' || in == '\n' || in == '\r' {
						if in != -1 {
							m.Ungot = int(in)
						}
						break
					}
					if err := a.storeByte(out+k, byte(in)); err != nil {
						return nativevm.Value{}, err
					}
					k++
				}
				if err := a.storeByte(out+k, 0); err != nil {
					return nativevm.Value{}, err
				}
				assigned++
			case 'c':
				in := getchar(m)
				if in == -1 {
					return nativevm.IntVal(assigned), nil
				}
				if err := a.storeByte(uint64(va.nextInt()), byte(in)); err != nil {
					return nativevm.Value{}, err
				}
				assigned++
			}
		}
		return nativevm.IntVal(assigned), nil
	}
	t["scanf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return scanfImpl(m, uint64(c.Args[0].I), &vaReader{m: m, addr: c.VaBase})
	}
	t["fscanf"] = func(m *nativevm.Machine, c *nativevm.CallCtx) (nativevm.Value, error) {
		return scanfImpl(m, uint64(c.Args[1].I), &vaReader{m: m, addr: c.VaBase})
	}
}

// printfCommon formats to stdout or to a buffer (sprintf family). Writes to
// the destination buffer are libc-internal and unchecked — sprintf overflow
// silently corrupts memory on the native engines (caught only by an ASan
// interceptor, which historically checks just the format's %s pointers).
func printfCommon(m *nativevm.Machine, c *nativevm.CallCtx, fmtAddr uint64, vaCtx *nativevm.CallCtx, buf *uint64, cap int64) (nativevm.Value, error) {
	fmtStr, f := m.Mem.CString(fmtAddr, 1<<16)
	if f != nil {
		return nativevm.Value{}, f
	}
	va := &vaReader{m: m, addr: vaCtx.VaBase}
	var out strings.Builder
	i := 0
	for i < len(fmtStr) {
		ch := fmtStr[i]
		if ch != '%' {
			out.WriteByte(ch)
			i++
			continue
		}
		i++
		start := i
		// flags
		for i < len(fmtStr) && strings.IndexByte("-0+ #", fmtStr[i]) >= 0 {
			i++
		}
		flags := fmtStr[start:i]
		// width
		width := -1
		if i < len(fmtStr) && fmtStr[i] == '*' {
			width = int(va.nextInt())
			i++
		} else {
			w := 0
			has := false
			for i < len(fmtStr) && fmtStr[i] >= '0' && fmtStr[i] <= '9' {
				w = w*10 + int(fmtStr[i]-'0')
				i++
				has = true
			}
			if has {
				width = w
			}
		}
		prec := -1
		if i < len(fmtStr) && fmtStr[i] == '.' {
			i++
			if i < len(fmtStr) && fmtStr[i] == '*' {
				prec = int(va.nextInt())
				i++
			} else {
				prec = 0
				for i < len(fmtStr) && fmtStr[i] >= '0' && fmtStr[i] <= '9' {
					prec = prec*10 + int(fmtStr[i]-'0')
					i++
				}
			}
		}
		longMod := false
		for i < len(fmtStr) && (fmtStr[i] == 'l' || fmtStr[i] == 'h' || fmtStr[i] == 'z') {
			if fmtStr[i] == 'l' || fmtStr[i] == 'z' {
				longMod = true
			}
			i++
		}
		if i >= len(fmtStr) {
			break
		}
		conv := fmtStr[i]
		i++
		var piece string
		switch conv {
		case '%':
			piece = "%"
		case 'c':
			piece = string(byte(va.nextInt()))
		case 's':
			addr := uint64(va.nextInt())
			if addr == 0 {
				piece = "(null)"
				break
			}
			n, err := wordStrlen(m, addr)
			if err != nil {
				return nativevm.Value{}, err
			}
			if prec >= 0 && int64(prec) < n {
				n = int64(prec)
			}
			data, f := m.Mem.ReadBytes(addr, n)
			if f != nil {
				return nativevm.Value{}, f
			}
			piece = string(data)
		case 'd', 'i':
			v := va.nextInt()
			if !longMod {
				v = int64(int32(v))
			}
			piece = strconv.FormatInt(v, 10)
		case 'u':
			v := va.nextInt()
			if !longMod {
				v = int64(uint32(v))
				piece = strconv.FormatUint(uint64(v), 10)
			} else {
				piece = strconv.FormatUint(uint64(v), 10)
			}
		case 'x', 'X', 'o', 'p':
			v := uint64(va.nextInt())
			if !longMod && conv != 'p' {
				v = uint64(uint32(v))
			}
			base := 16
			if conv == 'o' {
				base = 8
			}
			piece = strconv.FormatUint(v, base)
			if conv == 'X' {
				piece = strings.ToUpper(piece)
			}
			if conv == 'p' {
				piece = "0x" + piece
			}
		case 'f', 'e', 'g', 'E', 'G':
			v := va.nextFloat()
			p := prec
			if p < 0 {
				p = 6
			}
			k := byte('f')
			if conv == 'e' || conv == 'E' {
				k = 'e'
			}
			if conv == 'g' || conv == 'G' {
				k = 'g'
				if p == 0 {
					p = 1
				}
			}
			piece = strconv.FormatFloat(v, k, p, 64)
		default:
			piece = "%" + string(conv)
		}
		// padding
		if conv != 's' && conv != 'c' && prec > len(stripSign(piece)) && isIntConv(conv) {
			sign := ""
			body := piece
			if len(piece) > 0 && (piece[0] == '-' || piece[0] == '+') {
				sign, body = piece[:1], piece[1:]
			}
			piece = sign + strings.Repeat("0", prec-len(body)) + body
		}
		if width > len(piece) {
			pad := " "
			if strings.ContainsRune(flags, '0') && !strings.ContainsRune(flags, '-') && conv != 's' {
				pad = "0"
			}
			if strings.ContainsRune(flags, '-') {
				piece += strings.Repeat(" ", width-len(piece))
			} else if pad == "0" && len(piece) > 0 && (piece[0] == '-' || piece[0] == '+') {
				piece = piece[:1] + strings.Repeat("0", width-len(piece)) + piece[1:]
			} else {
				piece = strings.Repeat(pad, width-len(piece)) + piece
			}
		}
		out.WriteString(piece)
	}
	s := out.String()
	if buf == nil {
		m.Stdout.WriteString(s)
		return nativevm.IntVal(int64(len(s))), nil
	}
	// sprintf/snprintf: raw stores, no checking (uninstrumented libc).
	limit := int64(len(s))
	if cap >= 0 && limit > cap-1 {
		limit = cap - 1
		if limit < 0 {
			limit = 0
		}
	}
	for j := int64(0); j < limit; j++ {
		if f := m.Mem.StoreByte(*buf+uint64(j), s[j]); f != nil {
			return nativevm.Value{}, f
		}
	}
	if cap != 0 {
		if f := m.Mem.StoreByte(*buf+uint64(limit), 0); f != nil {
			return nativevm.Value{}, f
		}
	}
	return nativevm.IntVal(int64(len(s))), nil
}

func stripSign(s string) string {
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		return s[1:]
	}
	return s
}

func isIntConv(c byte) bool {
	switch c {
	case 'd', 'i', 'u', 'x', 'X', 'o':
		return true
	}
	return false
}
