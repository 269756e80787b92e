package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural invariants of a module. Engines assume these hold;
// the front end and optimizer must keep them true.
//
// Invariants:
//   - every block is non-empty and ends in exactly one terminator,
//   - branch targets are valid block indices,
//   - registers are in range [0, NumRegs),
//   - operands referencing globals/functions resolve within the module,
//   - call instructions to known functions pass at least the fixed arg count,
//   - a global's initializer fits its type (see verifyInit).
func Verify(m *Module) error { return verify(m, nil, nil) }

// VerifyExtension checks what Verify checks, on the globals and functions of
// m that are not base's: m extends base (Module.Extend), and base passed
// Verify. A global or function counts as base's only when it is base's
// pointer at the same index, so a definition that replaced a slot is
// checked under the slot's old name. The functions it skips verify the
// same in m as in base as long as m keeps every name base's code mentions,
// with the signature base gave it: Extend keeps every name, a replaced slot
// keeps its name, and the front end refuses to change the prototype of a
// name base's code mentions. A skipped global's initializer is unchanged.
// So it reports what Verify(m) would.
func VerifyExtension(m, base *Module) error { return verify(m, base.Globals, base.Funcs) }

// verify verifies m's globals and functions, skipping sharedGlobals[i] and
// sharedFuncs[i] at index i.
func verify(m *Module, sharedGlobals []*Global, sharedFuncs []*Func) error {
	var errs []error
	for i, g := range m.Globals {
		if g.Init == nil || i < len(sharedGlobals) && sharedGlobals[i] == g {
			continue
		}
		if err := verifyInit(g.Init, g.Ty); err != nil {
			errs = append(errs, fmt.Errorf("global %s: %w", g.Name, err))
		}
	}
	for i, f := range m.Funcs {
		if f.IsDecl || i < len(sharedFuncs) && sharedFuncs[i] == f {
			continue
		}
		if len(f.Blocks) == 0 {
			errs = append(errs, fmt.Errorf("func %s: no blocks", f.Name))
			continue
		}
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				errs = append(errs, fmt.Errorf("func %s block %s: empty", f.Name, b.Name))
				continue
			}
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				last := ii == len(b.Instrs)-1
				if IsTerminator(in.Op) != last {
					errs = append(errs, fmt.Errorf("func %s block %s instr %d: terminator placement", f.Name, b.Name, ii))
				}
				if err := verifyInstr(m, f, in); err != nil {
					errs = append(errs, fmt.Errorf("func %s block %s instr %d: %w", f.Name, b.Name, ii, err))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// verifyInit checks that initializer c fits type t, as the engines lay it
// out: an array constant has at most t's length in elements, a byte string
// at most t's size in bytes, and a struct constant at most t's fields, each
// element fitting its own type (C11 6.7.9p2 for the front end's output).
func verifyInit(c Const, t Type) error {
	switch v := c.(type) {
	case ConstBytes:
		if int64(len(v.Data)) > t.Size() {
			return fmt.Errorf("%d-byte initializer for %d-byte %s", len(v.Data), t.Size(), t)
		}
	case ConstArrayVal:
		at, ok := t.(*ArrayType)
		if !ok {
			return fmt.Errorf("array initializer for non-array type %s", t)
		}
		if int64(len(v.Elems)) > at.Len {
			return fmt.Errorf("%d-element initializer for %s", len(v.Elems), t)
		}
		for i, e := range v.Elems {
			if err := verifyInit(e, at.Elem); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case ConstStructVal:
		st, ok := t.(*StructType)
		if !ok {
			return fmt.Errorf("struct initializer for non-struct type %s", t)
		}
		if len(v.Fields) > len(st.Fields) {
			return fmt.Errorf("%d-field initializer for %s", len(v.Fields), t)
		}
		for i, f := range v.Fields {
			if err := verifyInit(f, st.Fields[i].Ty); err != nil {
				return fmt.Errorf("field %d: %w", i, err)
			}
		}
	}
	return nil
}

func verifyInstr(m *Module, f *Func, in *Instr) error {
	checkOp := func(o Operand) error {
		switch o.Kind {
		case OperReg:
			if o.Reg < 0 || int(o.Reg) >= f.NumRegs {
				return fmt.Errorf("register %%r%d out of range (regs=%d)", o.Reg, f.NumRegs)
			}
		case OperGlobal:
			if m.Global(o.Sym) == nil {
				return fmt.Errorf("unknown global @%s", o.Sym)
			}
		case OperFunc:
			if m.Func(o.Sym) == nil {
				return fmt.Errorf("unknown function &%s", o.Sym)
			}
		}
		return nil
	}
	checkBlk := func(idx int32) error {
		if idx < 0 || int(idx) >= len(f.Blocks) {
			return fmt.Errorf("branch target %d out of range", idx)
		}
		return nil
	}
	var opErr error
	in.Operands(func(o *Operand) {
		if opErr == nil && o.Kind != OperNone {
			opErr = checkOp(*o)
		}
	})
	if opErr != nil {
		return opErr
	}
	x := in.ext()
	for _, o := range x.Args {
		if o.Ty == nil {
			return fmt.Errorf("call argument missing type")
		}
	}
	switch in.Op {
	case OpCall, OpSwitch, OpSelect:
		if in.Ext == nil {
			return fmt.Errorf("opcode %d: no Ext (callee, cases or select arm)", in.Op)
		}
	}
	switch in.Op {
	case OpInvalid:
		return fmt.Errorf("invalid opcode")
	case OpAlloca, OpLoad, OpBin, OpCmp, OpGEP, OpSelect:
		if in.Dst < 0 {
			return fmt.Errorf("%v: missing destination", in.Op)
		}
		if int(in.Dst) >= f.NumRegs {
			return fmt.Errorf("destination %%r%d out of range", in.Dst)
		}
	case OpCast:
		if in.Dst < 0 || in.Ty == nil || in.Ty2 == nil {
			return fmt.Errorf("cast: missing dst or types")
		}
		if int(in.Dst) >= f.NumRegs {
			return fmt.Errorf("destination %%r%d out of range", in.Dst)
		}
	case OpBr:
		return checkBlk(in.Blk0)
	case OpCondBr:
		if err := checkBlk(in.Blk0); err != nil {
			return err
		}
		return checkBlk(in.Blk1)
	case OpSwitch:
		if err := checkBlk(in.Blk0); err != nil {
			return err
		}
		for _, c := range x.Cases {
			if err := checkBlk(c.Blk); err != nil {
				return err
			}
		}
	case OpCall:
		if int(in.Dst) >= f.NumRegs {
			return fmt.Errorf("destination %%r%d out of range", in.Dst)
		}
		if x.Callee.Kind == OperFunc {
			callee := m.Func(x.Callee.Sym)
			if callee != nil && callee.Sig != nil {
				if len(x.Args) < len(callee.Sig.Params) && callee.Sig.Variadic {
					return fmt.Errorf("call to %s: %d args < %d fixed params", callee.Name, len(x.Args), len(callee.Sig.Params))
				}
			}
		}
	}
	if in.Op == OpLoad || in.Op == OpStore {
		if in.Ty == nil {
			return fmt.Errorf("memory op missing type")
		}
		if IsAggregate(in.Ty) {
			return fmt.Errorf("memory op on aggregate type %s (front end must scalarize)", in.Ty)
		}
	}
	return nil
}
