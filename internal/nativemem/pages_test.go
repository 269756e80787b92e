package nativemem

import "testing"

// TestPagesResetKeepsBuffers pins the Pages contract: after Reset no page
// reads as made, a page made again comes back zeroed in the buffer it had,
// a page not made again stays absent, and no buffer is dropped or added.
func TestPagesResetKeepsBuffers(t *testing.T) {
	var ps Pages
	a, b := ps.Make(7), ps.Make(3)
	a[0], b[PageSize-1] = 1, 2
	if got := ps.Make(7); &got[0] != &a[0] || got[0] != 1 {
		t.Fatal("Make of a made page did not return its buffer")
	}
	if m := ps.Made(); len(m) != 2 || m[0] != 7 || m[1] != 3 {
		t.Fatalf("Made = %v, want [7 3]", m)
	}
	ps.Reset()
	if len(ps.Made()) != 0 || ps.Get(7) != nil || ps.Get(3) != nil {
		t.Fatalf("after Reset: made %v, page 7 %v, page 3 %v", ps.Made(), ps.Get(7) != nil, ps.Get(3) != nil)
	}
	again := ps.Make(7)
	if &again[0] != &a[0] {
		t.Error("page 7 made again in a new buffer")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("page 7 made again reads %d at %d", v, i)
		}
	}
	if ps.Get(3) != nil {
		t.Error("page 3, not made again, reads as made")
	}
	if got := ps.BufferBytes(); got != 2*PageSize {
		t.Errorf("BufferBytes = %d, want %d", got, 2*PageSize)
	}
}
