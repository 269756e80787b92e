package overlay

import (
	"maps"
	"testing"
)

// TestMapLayers pins the overlay's view: writes shadow the base, a delete
// hides a base key until it is set again, the base is never written, and
// Flat is the base itself until the overlay changes something.
func TestMapLayers(t *testing.T) {
	base := map[string]int{"a": 1, "b": 2}
	m := New(base)
	if got := m.Flat(); len(got) != 2 || got["a"] != 1 {
		t.Fatalf("unwritten overlay flattens to %v", got)
	}
	m.Set("a", 10)
	m.Set("c", 3)
	m.Delete("b")
	m.Delete("c")
	m.Delete("missing")
	for k, want := range map[string]int{"a": 10, "b": 0, "c": 0} {
		if got, ok := m.Get(k); got != want || ok != (want != 0) {
			t.Errorf("Get(%q) = %d, %v; want %d", k, got, ok, want)
		}
	}
	if want := map[string]int{"a": 10}; !maps.Equal(m.Flat(), want) {
		t.Errorf("Flat() = %v, want %v", m.Flat(), want)
	}
	m.Set("b", 20)
	if got, ok := m.Get("b"); !ok || got != 20 {
		t.Errorf("Get(\"b\") after re-setting = %d, %v", got, ok)
	}
	if want := map[string]int{"a": 1, "b": 2}; !maps.Equal(base, want) {
		t.Errorf("the base changed to %v", base)
	}
	if v, ok := New[string, int](nil).Get("a"); ok || v != 0 {
		t.Error("an overlay of nil holds a key")
	}
}
