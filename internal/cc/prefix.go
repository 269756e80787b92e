package cc

import (
	"fmt"
	"maps"

	"repro/internal/ir"
	"repro/internal/overlay"
)

// Prefix is the front end's state part-way through a translation unit: after
// the main file's leading lines, at the line that includes one more file.
// The managed toolchain builds one for the bundled libc (its sources are the
// main file's leading #includes, the user program its last) and continues
// every user program from it, so libc is preprocessed, parsed and lowered
// once instead of once per program. Continuing a prefix yields what a
// one-pass compile of the whole unit yields: the same module, or the same
// error.
//
// A built Prefix is immutable and shared by concurrent compilations:
//   - A continuing unit overlays its tables (overlay.Map): the macros, with
//     the remaining expansion budget; the typedef, struct, union and enum
//     tables; and codegen's function and global tables, with the
//     string-literal counter. It reads the prefix's maps and writes, and
//     deletes by tombstone, only its own; Freeze flattens them once.
//     The names the prefix's code mentions are read, never cloned: the unit
//     may not redeclare them as anything else (see codegen.program).
//   - A continuing unit lowers into a new module that starts with Module's
//     functions and globals, the same pointers in the same order
//     (ir.Module.Extend). A definition that replaces one of them replaces
//     the new module's slot, never the prefix's.
//   - Every struct the prefix owns is laid out and frozen by Freeze, so no
//     later compile fills in its lazy layout, and a later definition of one
//     of its tags declares a new struct instead of rewriting the shared one.
//   - The include guards the prefix's files were found to have are read,
//     never written: a unit records the guards it finds itself.
//
// Freeze verifies the prefix's module in full, so a continuing unit need
// verify only what it adds (ir.VerifyExtension), and need walk only what it
// adds for the module's struct table (collectStructs).
type Prefix struct {
	// Module is the lowered prefix, shared by every unit continuing it.
	Module *ir.Module

	unit string // the main file: it names the module and the final EOF token
	line int    // main-file line that includes the continued file; 0 when empty

	macros map[string]*macro
	budget int               // macro-expansion work left for the rest of the unit
	guards map[string]string // include name -> its include guard (includeGuard)

	typedefs map[string]*CType
	structs  map[string]*CStructInfo
	unions   map[string]*CStructInfo
	enums    map[string]int64

	funcs   map[string]*CFuncInfo
	globals map[string]*CType
	strIdx  int
	refs    map[string]bool
	// distinctStructs reports that no two structs in Module.Structs's walk
	// share a name.
	distinctStructs bool
}

// macroBudget bounds a whole unit's macro-expansion work; it guards against
// runaway recursion.
const macroBudget = 2_000_000

// NewPrefix returns the empty prefix of a unit whose main file is unit: the
// predefined macros and nothing else.
func NewPrefix(unit string, predefined map[string]string) (*Prefix, error) {
	pre := &Prefix{
		Module:   ir.NewModule(unit),
		unit:     unit,
		macros:   make(map[string]*macro, len(predefined)),
		budget:   macroBudget,
		guards:   map[string]string{},
		typedefs: map[string]*CType{},
		structs:  map[string]*CStructInfo{},
		unions:   map[string]*CStructInfo{},
		enums:    map[string]int64{},
		funcs:    map[string]*CFuncInfo{},
		globals:  map[string]*CType{},

		distinctStructs: true,
	}
	for name, val := range predefined {
		toks, err := Lex("<predefined>", val)
		if err != nil {
			return nil, err
		}
		var body []Token
		for _, t := range toks {
			if t.Kind != TokEOF && t.Kind != TokNewline {
				body = append(body, t)
			}
		}
		pre.macros[name] = &macro{name: name, body: body}
	}
	return pre, nil
}

// Unit compiles one file against a prefix, one stage at a time: Preprocess,
// Parse, Lower. A unit continuing an empty prefix compiles its file as the
// main file.
type Unit struct {
	pre   *Prefix
	files func(name string) (string, bool)

	macros *overlay.Map[string, *macro]
	budget int
	guards map[string]string // the include guards this unit found
	toks   []Token
	names  []string // the file table toks' File indexes
	parser *Parser
	prog   *Program
	cg     *codegen

	distinctStructs bool
}

// Continue starts a unit that compiles one more file after pre. files
// resolves include names, the file itself among them.
func (pre *Prefix) Continue(files func(name string) (string, bool)) *Unit {
	return &Unit{pre: pre, files: files}
}

// Preprocess is the preprocessor stage: it expands file under the prefix's
// macros.
func (u *Unit) Preprocess(file string) error {
	p := &preprocessor{
		files:        u.files,
		macros:       overlay.New(u.pre.macros),
		maxWork:      u.pre.budget,
		sharedGuards: u.pre.guards,
		guards:       map[string]string{},
	}
	if u.pre.line > 0 {
		// The file is included from the main file: it nests one level deep,
		// and its errors are reported at the including line.
		p.depth = 1
		if err := p.processFile(file); err != nil {
			return fmt.Errorf("%s:%d: %w", u.pre.unit, u.pre.line, err)
		}
	} else if err := p.processFile(file); err != nil {
		return err
	}
	p.emit(Token{Kind: TokEOF, File: p.fileID(u.pre.unit)})
	u.toks, u.names, u.macros, u.budget, u.guards = p.out, p.names, p.macros, p.maxWork, p.guards
	return nil
}

// Parse is the parser stage, under the prefix's typedefs and tags.
func (u *Unit) Parse() error {
	u.parser = &Parser{
		toks:     u.toks,
		files:    u.names,
		typedefs: overlay.New(u.pre.typedefs),
		structs:  overlay.New(u.pre.structs),
		unions:   overlay.New(u.pre.unions),
		enums:    overlay.New(u.pre.enums),
	}
	prog, err := u.parser.program()
	u.prog = prog
	return err
}

// Lower is the typecheck/codegen stage. It lowers the file into a module
// that starts with the prefix's functions and globals, so declarations
// resolve to the prefix's definitions. It does not verify the result
// (ir.Verify is a separate pipeline stage).
func (u *Unit) Lower() (*ir.Module, error) {
	u.cg = &codegen{
		m:       u.pre.Module.Extend(),
		globals: overlay.New(u.pre.globals),
		funcs:   overlay.New(u.pre.funcs),
		strIdx:  u.pre.strIdx,
		file:    u.pre.unit,
		preRefs: u.pre.refs,
		refs:    map[string]bool{},
		scratch: scratchPool.Get().(*blockScratch),
	}
	err := u.cg.program(u.prog)
	u.cg.scratch.reset() // a failed function leaves its blocks behind
	scratchPool.Put(u.cg.scratch)
	u.cg.scratch = nil
	if err != nil {
		return nil, err
	}
	u.distinctStructs = collectStructs(u.cg.m, u.pre.Module, u.pre.distinctStructs)
	return u.cg.m, nil
}

// Freeze publishes the lowered unit as a prefix whose continuation the main
// file includes from line. It verifies the unit's module in full, flattens
// the unit's overlaid tables and its module's symbol index, and lays out
// and freezes every struct the prefix can reach. The unit must not be used
// afterwards.
func (u *Unit) Freeze(line int) (*Prefix, error) {
	if err := ir.Verify(u.cg.m); err != nil {
		return nil, fmt.Errorf("cc: internal error: generated invalid IR: %w", err)
	}
	u.cg.m.FreezeIndex()
	pre := &Prefix{
		Module:   u.cg.m,
		unit:     u.pre.unit,
		line:     line,
		macros:   u.macros.Flat(),
		budget:   u.budget,
		guards:   u.guards,
		typedefs: u.parser.typedefs.Flat(),
		structs:  u.parser.structs.Flat(),
		unions:   u.parser.unions.Flat(),
		enums:    u.parser.enums.Flat(),
		funcs:    u.cg.funcs.Flat(),
		globals:  u.cg.globals.Flat(),
		strIdx:   u.cg.strIdx,
		refs:     u.cg.refs,

		distinctStructs: u.distinctStructs,
	}
	maps.Copy(pre.refs, u.pre.refs)
	maps.Copy(pre.guards, u.pre.guards)
	seen := map[*CStructInfo]bool{}
	var freeze func(t *CType)
	freeze = func(t *CType) {
		if t == nil {
			return
		}
		switch t.Kind {
		case CPtr, CArray:
			freeze(t.Elem)
		case CFunc:
			freezeSig(t.Fn, freeze)
		case CStruct:
			s := t.Struct
			if seen[s] {
				return
			}
			seen[s] = true
			for _, f := range s.Fields {
				freeze(f.Ty)
			}
			if s.Complete {
				s.ir()
			}
			s.frozen = true
		}
	}
	for _, tags := range []map[string]*CStructInfo{pre.structs, pre.unions} {
		for _, s := range tags {
			freeze(&CType{Kind: CStruct, Struct: s})
		}
	}
	for _, t := range pre.typedefs {
		freeze(t)
	}
	for _, t := range pre.globals {
		freeze(t)
	}
	for _, sig := range pre.funcs {
		freezeSig(sig, freeze)
	}
	return pre, nil
}

func freezeSig(sig *CFuncInfo, freeze func(*CType)) {
	if sig == nil {
		return
	}
	freeze(sig.Ret)
	for _, p := range sig.Params {
		freeze(p)
	}
}
