package memdesc

import (
	"testing"

	"repro/internal/ir"
)

func TestKindOf(t *testing.T) {
	if KindOf(ir.I32) != Int || KindOf(ir.F64) != Float || KindOf(ir.BytePtr) != Ptr {
		t.Fatalf("scalar kinds misclassified: %v %v %v", KindOf(ir.I32), KindOf(ir.F64), KindOf(ir.BytePtr))
	}
	st := ir.NewStruct("s", []ir.Field{{Name: "a", Ty: ir.I32}})
	if KindOf(st) != Unknown {
		t.Fatalf("aggregate should classify Unknown, got %v", KindOf(st))
	}
}

func union2() *ir.StructType {
	u := &ir.StructType{Name: "u", Fields: []ir.Field{
		{Name: "i", Ty: ir.I64, Offset: 0},
		{Name: "d", Ty: ir.F64, Offset: 0},
	}}
	u.SetLayout(8, 8)
	return u
}

func TestFromIRUnionSpans(t *testing.T) {
	u := union2()
	if !IsUnionType(u) {
		t.Fatal("union2 not recognized as union")
	}
	d := FromIR(u, "union u")
	if d.Size != 8 || len(d.Unions) != 1 || d.Unions[0] != (Range{0, 8}) {
		t.Fatalf("bad union desc: %+v", d)
	}
	if _, ok := d.UnionAt(0, 4); !ok {
		t.Fatal("interior access should land in the union span")
	}
	if _, ok := d.UnionAt(4, 8); ok {
		t.Fatal("straddling access must not match")
	}

	// A struct embedding the union at a nonzero offset.
	st := ir.NewStruct("holder", []ir.Field{
		{Name: "tag", Ty: ir.I64},
		{Name: "u", Ty: u},
	})
	hd := FromIR(st, "struct holder")
	if len(hd.Unions) != 1 || hd.Unions[0] != (Range{8, 16}) {
		t.Fatalf("embedded union span wrong: %+v", hd.Unions)
	}

	// An array of union-bearing elements unrolls span by span.
	arr := &ir.ArrayType{Elem: u, Len: 3}
	ad := FromIR(arr, "union u [3]")
	if len(ad.Unions) != 3 || ad.Unions[2] != (Range{16, 24}) {
		t.Fatalf("array union spans wrong: %+v", ad.Unions)
	}

	plain := FromIR(ir.NewStruct("p", []ir.Field{{Name: "a", Ty: ir.I32}, {Name: "b", Ty: ir.I32}}), "struct p")
	if plain.HasUnions() {
		t.Fatalf("plain struct reported unions: %+v", plain.Unions)
	}
}

func TestTable(t *testing.T) {
	var tab Table
	di := FromIR(ir.I32, "int")
	dd := FromIR(ir.F64, "double")

	tab.Register(100, 4, di)
	tab.Register(200, 8, dd)
	tab.Register(50, 10, di)

	if d, base, size, ok := tab.Find(203); !ok || d != dd || base != 200 || size != 8 {
		t.Fatalf("Find(203) = %v %d %d %v", d, base, size, ok)
	}
	if _, _, _, ok := tab.Find(104); ok {
		t.Fatal("Find past end of span should miss")
	}
	if _, _, _, ok := tab.Find(99); ok {
		t.Fatal("Find in gap should miss")
	}

	// Re-registering an overlapping range evicts the old span (stack reuse).
	tab.Register(100, 4, dd)
	if d, _, _, _ := tab.Find(100); d != dd {
		t.Fatal("re-registration did not replace the old descriptor")
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}

	tab.RemoveRange(0, 150)
	if tab.Len() != 1 {
		t.Fatalf("after RemoveRange Len = %d, want 1", tab.Len())
	}
	if _, _, _, ok := tab.Find(100); ok {
		t.Fatal("removed span still findable")
	}
	if _, _, _, ok := tab.Find(200); !ok {
		t.Fatal("surviving span lost")
	}

	// nil receiver is a safe no-op everywhere.
	var nilTab *Table
	nilTab.Register(0, 8, di)
	nilTab.RemoveRange(0, 8)
	if _, _, _, ok := nilTab.Find(0); ok || nilTab.Len() != 0 {
		t.Fatal("nil table should be inert")
	}
}

func TestMemoSharesDescriptors(t *testing.T) {
	var m Memo
	st := ir.NewStruct("pt", []ir.Field{{Name: "x", Ty: ir.I32}, {Name: "y", Ty: ir.I32}})
	if a, b := m.Decl(st, "struct pt"), m.Decl(st, "struct pt"); a != b || a.Size != 8 {
		t.Fatalf("declared type not memoized: %p %p (size %d)", a, b, a.Size)
	}

	// A round-tripped module types the cast as plain "ptr": the spelling
	// resolves against the struct table instead.
	in := &ir.Instr{Op: ir.OpCast, Cast: ir.Bitcast, Ty2: ir.BytePtr, Ext: &ir.Ext{CType: "struct pt"}}
	d := m.Cast(in, map[string]*ir.StructType{"pt": st})
	if d == nil || d.Size != 8 || d.CType != "struct pt" {
		t.Fatalf("cast target via struct table = %+v", d)
	}
	if again := m.Cast(in, nil); again != d {
		t.Fatalf("cast target not memoized: %p then %p", d, again)
	}
	unknown := &ir.Instr{Op: ir.OpCast, Cast: ir.Bitcast, Ty2: ir.BytePtr, Ext: &ir.Ext{CType: "struct nope"}}
	if d := m.Cast(unknown, map[string]*ir.StructType{"pt": st}); d != nil {
		t.Fatalf("unresolvable cast target = %+v, want nil", d)
	}
}
