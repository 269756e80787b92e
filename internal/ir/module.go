package ir

import (
	"fmt"

	"repro/internal/overlay"
)

// Func is an SIR function: a register machine with basic blocks.
// Parameters arrive in registers 0..len(Sig.Params)-1.
type Func struct {
	Name       string
	Sig        *FuncType
	ParamNames []string
	NumRegs    int
	Blocks     []*Block
	IsDecl     bool // declaration only: resolved to a builtin at run time
	SourceFile string
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() int32 {
	r := int32(f.NumRegs)
	f.NumRegs++
	return r
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// BlockIndex returns the index of the named block, or -1.
func (f *Func) BlockIndex(name string) int {
	for i, b := range f.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// InstrCount returns the total number of instructions in the function.
func (f *Func) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Const is a compile-time constant used to initialize globals.
type Const interface{ constNode() }

// ConstIntVal is an integer constant of a given type.
type ConstIntVal struct {
	Ty Type
	V  int64
}

// ConstFloatVal is a floating-point constant.
type ConstFloatVal struct {
	Ty Type
	V  float64
}

// ConstBytes is a byte-string constant (C string literals, including NUL).
type ConstBytes struct {
	Data []byte
}

// ConstArrayVal is an array of constants.
type ConstArrayVal struct {
	Ty    *ArrayType
	Elems []Const // may be shorter than Ty.Len; the rest is zero
}

// ConstStructVal is a struct constant.
type ConstStructVal struct {
	Ty     *StructType
	Fields []Const
}

// ConstZero is a zero initializer of any type.
type ConstZero struct {
	Ty Type
}

// ConstGlobalRef is the address of another global plus a byte offset
// (e.g. a pointer array holding string-literal addresses).
type ConstGlobalRef struct {
	Sym string
	Off int64
}

// ConstFuncRef is the address of a function.
type ConstFuncRef struct {
	Sym string
}

func (ConstIntVal) constNode()    {}
func (ConstFloatVal) constNode()  {}
func (ConstBytes) constNode()     {}
func (ConstArrayVal) constNode()  {}
func (ConstStructVal) constNode() {}
func (ConstZero) constNode()      {}
func (ConstGlobalRef) constNode() {}
func (ConstFuncRef) constNode()   {}

// Global is a module-level variable (static storage).
type Global struct {
	Name    string
	Ty      Type
	Init    Const // nil means zero-initialized
	IsConst bool  // declared const (enables front-end constant folding)
	// CType is the declared C type of the global as the front end spelled
	// it (diagnostics and the dynamic type-identity plane). Empty when
	// unknown; round-trips through print/parse as a "!ctype" suffix.
	CType string
}

// Module is a complete translation unit: the user program plus the libc it
// was linked with.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
	Structs map[string]*StructType

	// funcIdx and globalIdx map names to slots. A module made by Extend
	// overlays its base's index: a name keeps its slot when a definition
	// replaces the base's, so only names the module adds are written.
	funcIdx   *overlay.Map[string, int]
	globalIdx *overlay.Map[string, int]
	base      *Module // the module Extend copied this one from, or nil
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:      name,
		Structs:   map[string]*StructType{},
		funcIdx:   overlay.New[string, int](nil),
		globalIdx: overlay.New[string, int](nil),
	}
}

// AddFunc appends f, replacing any previous declaration with the same name.
func (m *Module) AddFunc(f *Func) {
	if i, ok := m.funcIdx.Get(f.Name); ok {
		// A definition replaces a declaration (and vice versa is ignored).
		if m.Funcs[i].IsDecl || !f.IsDecl {
			m.Funcs[i] = f
		}
		return
	}
	m.funcIdx.Set(f.Name, len(m.Funcs))
	m.Funcs = append(m.Funcs, f)
}

// AddGlobal appends g to the module.
func (m *Module) AddGlobal(g *Global) error {
	if _, ok := m.globalIdx.Get(g.Name); ok {
		return fmt.Errorf("ir: duplicate global %q", g.Name)
	}
	m.globalIdx.Set(g.Name, len(m.Globals))
	m.Globals = append(m.Globals, g)
	return nil
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	if i, ok := m.funcIdx.Get(name); ok {
		return m.Funcs[i]
	}
	return nil
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	if i, ok := m.globalIdx.Get(name); ok {
		return m.Globals[i]
	}
	return nil
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	if i, ok := m.funcIdx.Get(name); ok {
		return i
	}
	return -1
}

// GlobalIndex returns the index of the named global, or -1. The tier-1
// compiler resolves global operands to indices at compile time and back to
// per-engine objects at run time, so compiled code depends only on the
// module — never on one engine's global layout.
func (m *Module) GlobalIndex(name string) int {
	if i, ok := m.globalIdx.Get(name); ok {
		return i
	}
	return -1
}

// Reindex rebuilds the symbol maps after direct slice manipulation
// (used by the optimizer when it removes dead functions).
func (m *Module) Reindex() {
	funcIdx := make(map[string]int, len(m.Funcs))
	globalIdx := make(map[string]int, len(m.Globals))
	for i, f := range m.Funcs {
		funcIdx[f.Name] = i
	}
	for i, g := range m.Globals {
		globalIdx[g.Name] = i
	}
	m.funcIdx = overlay.New(funcIdx)
	m.globalIdx = overlay.New(globalIdx)
}

// FreezeIndex flattens m's symbol index into one map per kind, so that a
// module extending m finds m's names in one lookup, not one per module in
// m's Extend chain. m must be immutable from here on (see Extend).
func (m *Module) FreezeIndex() {
	m.funcIdx = overlay.New(m.funcIdx.Flat())
	m.globalIdx = overlay.New(m.globalIdx.Flat())
}

// Extend returns a new module that starts with m's functions and globals —
// the same *Func and *Global pointers, in m's order — for a later unit to
// add to: its declarations resolve to m's definitions, and AddFunc replaces
// a slot of the new module, never m's. It is how a user program links
// against a libc compiled once. Nothing reachable from m is copied, so m
// must be immutable from here on. The new module's Base is m. Its symbol
// index overlays m's, which FreezeIndex makes one map; its Structs starts
// empty, for the front end fills it once the unit is lowered.
func (m *Module) Extend() *Module {
	return &Module{
		base:      m,
		Name:      m.Name,
		Globals:   append([]*Global(nil), m.Globals...),
		Funcs:     append([]*Func(nil), m.Funcs...),
		Structs:   map[string]*StructType{},
		funcIdx:   overlay.New(m.funcIdx.Flat()),
		globalIdx: overlay.New(m.globalIdx.Flat()),
	}
}

// Base returns the module m was extended from (Extend), or nil. Slots of
// Base's functions and globals that m still holds unreplaced are the same
// pointers at the same indices, which is what lets the tier-1 code cache
// serve Base's compiled functions to every module extending it.
func (m *Module) Base() *Module { return m.base }

// Clone returns a deep copy of the module: functions (blocks, instructions,
// operand/case slices), globals (including their initializer constants),
// and the struct-name index. Types themselves (*StructType etc.) are shared
// — they are laid out once by the front end and immutable afterwards.
//
// Clone exists so one front-end compile can serve several engine
// configurations: the optimizer and the tier-1 JIT mutate clones, never the
// cached original, which internal/pipeline shares across concurrent runs.
func (m *Module) Clone() *Module {
	out := NewModule(m.Name)
	for name, st := range m.Structs {
		out.Structs[name] = st
	}
	for _, g := range m.Globals {
		ng := &Global{Name: g.Name, Ty: g.Ty, Init: CloneConst(g.Init), IsConst: g.IsConst, CType: g.CType}
		out.globalIdx.Set(ng.Name, len(out.Globals))
		out.Globals = append(out.Globals, ng)
	}
	for _, f := range m.Funcs {
		out.AddFunc(f.Clone())
	}
	return out
}

// CloneConst deep-copies an initializer constant, including the slices
// inside aggregate constants, so a clone's globals share no mutable state
// with the original.
func CloneConst(c Const) Const {
	switch v := c.(type) {
	case nil:
		return nil
	case ConstBytes:
		return ConstBytes{Data: append([]byte(nil), v.Data...)}
	case ConstArrayVal:
		elems := make([]Const, len(v.Elems))
		for i, e := range v.Elems {
			elems[i] = CloneConst(e)
		}
		return ConstArrayVal{Ty: v.Ty, Elems: elems}
	case ConstStructVal:
		fields := make([]Const, len(v.Fields))
		for i, e := range v.Fields {
			fields[i] = CloneConst(e)
		}
		return ConstStructVal{Ty: v.Ty, Fields: fields}
	default:
		// Value types (ConstIntVal, ConstFloatVal, ConstZero, ConstGlobalRef,
		// ConstFuncRef) carry no mutable state.
		return c
	}
}

// Clone returns a deep copy of f: its blocks, instructions and every
// instruction's Ext (operand and case slices included), so a pass may
// rewrite the copy in place. Types are shared, as in Module.Clone.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:       f.Name,
		Sig:        f.Sig,
		ParamNames: append([]string(nil), f.ParamNames...),
		NumRegs:    f.NumRegs,
		IsDecl:     f.IsDecl,
		SourceFile: f.SourceFile,
		Blocks:     make([]*Block, len(f.Blocks)),
	}
	for bi, b := range f.Blocks {
		nb := &Block{Name: b.Name, Instrs: append([]Instr(nil), b.Instrs...)}
		for i := range nb.Instrs {
			nb.Instrs[i].Ext = nb.Instrs[i].Ext.clone()
		}
		nf.Blocks[bi] = nb
	}
	return nf
}

// ZeroConst reports whether c is (recursively) all zero.
func ZeroConst(c Const) bool {
	switch v := c.(type) {
	case nil:
		return true
	case ConstZero:
		return true
	case ConstIntVal:
		return v.V == 0
	case ConstFloatVal:
		return v.V == 0
	case ConstBytes:
		for _, b := range v.Data {
			if b != 0 {
				return false
			}
		}
		return true
	case ConstArrayVal:
		for _, e := range v.Elems {
			if !ZeroConst(e) {
				return false
			}
		}
		return true
	case ConstStructVal:
		for _, e := range v.Fields {
			if !ZeroConst(e) {
				return false
			}
		}
		return true
	}
	return false
}
