package nativevm

import "repro/internal/ir"

// This file is the native half of the dynamic type-identity plane. The
// machine mirrors the managed engine's per-object descriptors in an
// address-range table (memdesc.Table): stack allocas and globals register
// their declared C type at allocation, heap blocks adopt a type at the first
// checked pointer cast, and frame epilogues / free retire registrations. The
// mirror is pure observation — native execution never *checks* it (that is
// the blind spot the corpus demonstrates) — but it gives the introspection
// builtins and the hardened nlibc the same answers the managed family gives.

// moduleWantsIntrospection reports whether the program can observe the type
// mirror at all: it declares one of the introspection externs. When it
// cannot, the machine skips all registrations (they would be dead weight on
// the hot allocation path). The function index is authoritative: modules
// only grow through AddFunc, and the optimizer never removes functions.
func moduleWantsIntrospection(mod *ir.Module) bool {
	for _, name := range [...]string{"_size_of_object", "_type_of", "_bounds_of"} {
		if f := mod.Func(name); f != nil && f.IsDecl {
			return true
		}
	}
	return false
}

// HardenedLibc reports whether nlibc's bulk-write family should clamp
// writes to the destination object's known extent (Config.Hardened).
func (m *Machine) HardenedLibc() bool { return m.hardened }

// WriteCap returns how many of n bytes may be written starting at dst
// under the hardened-libc policy: n itself when the machine is not
// hardened or knows nothing about dst (graceful degradation), otherwise
// the remaining room in dst's allocation.
func (m *Machine) WriteCap(dst uint64, n int64) int64 {
	if !m.hardened || n <= 0 {
		return n
	}
	if base, size, ok := m.ObjectExtent(dst); ok {
		if room := int64(base) + size - int64(dst); room >= 0 && room < n {
			return room
		}
	}
	return n
}

// adoptHeapType gives a type-less heap block an effective type at its first
// checked cast (the malloc-then-cast pattern), mirroring core.CheckCast's
// adoption rule. Best-effort and silent: native execution never errors on a
// cast, whatever the types say.
func (m *Machine) adoptHeapType(addr uint64, in *ir.Instr) {
	if !m.trackTypes || addr == 0 {
		return
	}
	if _, _, _, ok := m.Types.Find(int64(addr)); ok {
		return // already typed (stack, global, or earlier adoption)
	}
	d := m.descs.Cast(in, m.Mod.Structs)
	if d == nil || d.Size <= 0 {
		return
	}
	if size, ok := m.Alloc.SizeOf(addr); ok && size >= d.Size {
		m.Types.Register(int64(addr), size, d)
	}
}

// RetireHeapType drops a heap block's type registration at free, so a later
// allocation reusing the address range starts type-less. nlibc's free and
// realloc call it before handing the block back to the allocator.
func (m *Machine) RetireHeapType(addr uint64) {
	if !m.trackTypes || addr == 0 {
		return
	}
	if size, ok := m.Alloc.SizeOf(addr); ok {
		m.Types.RemoveRange(int64(addr), int64(addr)+size)
	}
}

// ObjectExtent resolves the allocation containing addr: heap blocks via the
// allocator's bookkeeping (base addresses only — interior heap pointers
// resolve only if the block has an adopted type registration), everything
// else via the type mirror. ok is false when the machine knows nothing,
// which is the honest native answer (-1 / 0 from the builtins).
func (m *Machine) ObjectExtent(addr uint64) (base uint64, size int64, ok bool) {
	if sz, ok := m.Alloc.SizeOf(addr); ok {
		return addr, sz, true
	}
	if _, b, sz, ok := m.Types.Find(int64(addr)); ok {
		return uint64(b), sz, true
	}
	return 0, 0, false
}

// TypeNameAt returns the effective C type name of the allocation containing
// addr, or "" when untyped/unknown.
func (m *Machine) TypeNameAt(addr uint64) string {
	if d, _, _, ok := m.Types.Find(int64(addr)); ok && d != nil {
		return d.CType
	}
	return ""
}

// InternTypeStr returns the deterministic address of the NUL-terminated
// type-name string s in the TypeStrBase region, interning it on first use.
// The region is engine metadata: mapped lazily, never heap-charged, so
// introspection cannot shift a fault-schedule coordinate.
func (m *Machine) InternTypeStr(s string) uint64 {
	if at, ok := m.typeStrs[s]; ok {
		return at
	}
	if m.typeStrs == nil {
		m.typeStrs = make(map[string]uint64, 8)
		m.Mem.Map(TypeStrBase, typeStrSize)
		m.typeStrCur = TypeStrBase
	}
	need := uint64(len(s) + 1)
	if m.typeStrCur+need > TypeStrBase+typeStrSize {
		// Region exhausted (pathological): reuse the base — the string there
		// is wrong but the address is valid, and native stays crash-free.
		return TypeStrBase
	}
	at := m.typeStrCur
	m.Mem.WriteBytes(at, append([]byte(s), 0))
	m.typeStrCur += need
	m.typeStrs[s] = at
	return at
}
