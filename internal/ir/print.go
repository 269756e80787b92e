package ir

import (
	"fmt"
	"strings"
)

// Print renders the module in SIR textual form. The output parses back with
// Parse into an equivalent module (round-trip property).
func Print(m *Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %q\n", m.Name)
	for _, n := range structOrder(m) {
		st := m.Structs[n]
		// Unions print with their own keyword so the parser can restore the
		// all-fields-at-offset-0 layout instead of recomputing struct offsets.
		kw := "struct"
		if st.IsUnion() {
			kw = "union"
		}
		fmt.Fprintf(&b, "%s %%%s {", kw, st.Name)
		for i, f := range st.Fields {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %s %s", f.Ty, f.Name)
		}
		b.WriteString(" }\n")
	}
	for _, g := range m.Globals {
		b.WriteString("global @")
		b.WriteString(g.Name)
		if g.IsConst {
			b.WriteString(" const")
		}
		b.WriteString(" ")
		b.WriteString(g.Ty.String())
		b.WriteString(" = ")
		printConst(&b, g.Init, g.Ty)
		if g.CType != "" {
			fmt.Fprintf(&b, " !ctype %q", g.CType)
		}
		b.WriteString("\n")
	}
	for _, f := range m.Funcs {
		if f.IsDecl {
			fmt.Fprintf(&b, "declare @%s %s\n", f.Name, f.Sig)
		}
	}
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		b.WriteString("\n")
		printFunc(&b, f)
	}
	return b.String()
}

// PrintFunc renders a single function (used in diagnostics and tests).
func PrintFunc(f *Func) string {
	var b strings.Builder
	printFunc(&b, f)
	return b.String()
}

func printFunc(b *strings.Builder, f *Func) {
	fmt.Fprintf(b, "func @%s %s regs %d", f.Name, f.Sig, f.NumRegs)
	if len(f.ParamNames) > 0 {
		b.WriteString(" names(")
		for i, n := range f.ParamNames {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n)
		}
		b.WriteString(")")
	}
	b.WriteString(" {\n")
	for bi, blk := range f.Blocks {
		fmt.Fprintf(b, "%s:\n", blk.Name)
		for i := range blk.Instrs {
			b.WriteString("  ")
			printInstr(b, f, &blk.Instrs[i])
			// Metadata rides along as "!key value" suffixes so diagnostics
			// and the type-identity plane survive a print/parse round trip
			// (without !line the parser would repoint Line at the IR-text
			// token line; without !ctype checked casts would degrade to
			// plain moves).
			if blk.Instrs[i].CType != "" {
				fmt.Fprintf(b, " !ctype %q", blk.Instrs[i].CType)
			}
			if blk.Instrs[i].Line > 0 {
				fmt.Fprintf(b, " !line %d", blk.Instrs[i].Line)
			}
			b.WriteString("\n")
		}
		_ = bi
	}
	b.WriteString("}\n")
}

func blkName(f *Func, i int) string {
	if i < 0 || i >= len(f.Blocks) {
		return fmt.Sprintf("<bad:%d>", i)
	}
	return f.Blocks[i].Name
}

func printInstr(b *strings.Builder, f *Func, in *Instr) {
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(b, "%%r%d = alloca %s", in.Dst, in.Ty)
		if cnt, ok := in.CountOp(); ok {
			fmt.Fprintf(b, " count %s", cnt)
		}
		if in.Name != "" {
			fmt.Fprintf(b, " name %q", in.Name)
		}
	case OpLoad:
		fmt.Fprintf(b, "%%r%d = load %s, %s", in.Dst, in.Ty, in.Addr)
	case OpStore:
		fmt.Fprintf(b, "store %s %s, %s", in.Ty, in.A, in.Addr)
	case OpGEP:
		fmt.Fprintf(b, "%%r%d = gep %s, %d, %s", in.Dst, in.Addr, in.Stride, in.A)
	case OpBin:
		fmt.Fprintf(b, "%%r%d = %s %s %s, %s", in.Dst, in.Bin, in.Ty, in.A, in.B)
	case OpCmp:
		fmt.Fprintf(b, "%%r%d = cmp %s %s %s, %s", in.Dst, in.Pred, in.Ty, in.A, in.B)
	case OpCast:
		fmt.Fprintf(b, "%%r%d = %s %s %s to %s", in.Dst, in.Cast, in.Ty, in.A, in.Ty2)
	case OpSelect:
		fmt.Fprintf(b, "%%r%d = select %s, %s %s, %s", in.Dst, in.A, in.Ty, in.B, in.C)
	case OpCall:
		if in.Dst >= 0 {
			fmt.Fprintf(b, "%%r%d = call %s %s(", in.Dst, in.Ty, in.Callee)
		} else {
			fmt.Fprintf(b, "call void %s(", in.Callee)
		}
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s %s", a.Ty, a)
		}
		fmt.Fprintf(b, ") fixed %d", in.FixedArgs)
	case OpBr:
		fmt.Fprintf(b, "br %s", blkName(f, in.Blk0))
	case OpCondBr:
		fmt.Fprintf(b, "condbr %s, %s, %s", in.A, blkName(f, in.Blk0), blkName(f, in.Blk1))
	case OpSwitch:
		fmt.Fprintf(b, "switch %s %s, default %s [", in.Ty, in.A, blkName(f, in.Blk0))
		for i, c := range in.Cases {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d: %s", c.Val, blkName(f, c.Blk))
		}
		b.WriteString("]")
	case OpRet:
		if in.A.Kind == OperNone {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(b, "ret %s %s", in.Ty, in.A)
		}
	case OpUnreachable:
		b.WriteString("unreachable")
	default:
		fmt.Fprintf(b, "<invalid op %d>", in.Op)
	}
}

// SetCount records a dynamic element count for an alloca.
func (in *Instr) SetCount(o Operand) { in.B = o }

// Count reports the alloca count operand and whether one is present.
func (in *Instr) CountOp() (Operand, bool) {
	if in.Op == OpAlloca && in.B.Kind != OperNone {
		return in.B, true
	}
	return Operand{}, false
}

func printConst(b *strings.Builder, c Const, ty Type) {
	switch v := c.(type) {
	case nil:
		b.WriteString("zero")
	case ConstZero:
		b.WriteString("zero")
	case ConstIntVal:
		fmt.Fprintf(b, "int %d", v.V)
	case ConstFloatVal:
		fmt.Fprintf(b, "float %g", v.V)
	case ConstBytes:
		fmt.Fprintf(b, "bytes %q", string(v.Data))
	case ConstArrayVal:
		b.WriteString("array [")
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			printConst(b, e, nil)
		}
		b.WriteString("]")
	case ConstStructVal:
		b.WriteString("fields {")
		for i, e := range v.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			printConst(b, e, nil)
		}
		b.WriteString("}")
	case ConstGlobalRef:
		fmt.Fprintf(b, "addr @%s + %d", v.Sym, v.Off)
	case ConstFuncRef:
		fmt.Fprintf(b, "addr &%s", v.Sym)
	default:
		b.WriteString("<bad const>")
	}
}

// structOrder lists the module's named structs by name, except that each
// comes after the structs it holds by value: Parse resolves a struct name
// only once its definition has been read.
func structOrder(m *Module) []string {
	names := make([]string, 0, len(m.Structs))
	for n := range m.Structs {
		names = append(names, n)
	}
	sortStrings(names)
	out := make([]string, 0, len(names))
	seen := map[string]bool{}
	var visit func(t Type)
	visit = func(t Type) {
		switch t := t.(type) {
		case *ArrayType:
			visit(t.Elem)
		case *StructType:
			if t.Name != "" {
				if seen[t.Name] {
					return
				}
				seen[t.Name] = true
			}
			for _, f := range t.Fields {
				visit(f.Ty)
			}
			if t.Name != "" && m.Structs[t.Name] != nil {
				out = append(out, t.Name)
			}
		}
	}
	for _, n := range names {
		visit(m.Structs[n])
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
