// Package overlay provides a map layered over a frozen base map. It is how
// a unit continuing a shared prefix sees the prefix's symbol tables: reads
// check the unit's own entries and then the base's, writes and deletes go
// to the unit's entries only. The base is never written, so any number of
// overlays can share it across goroutines, and none of them copies it.
package overlay

// Map is a map layered over a frozen base map. Its zero value is not
// usable; make one with New. A Map is not safe for concurrent writers.
type Map[K comparable, V any] struct {
	base  map[K]V // read, never written
	local map[K]V
	gone  map[K]bool // base keys deleted here
}

// New returns an empty overlay of base. base must not be written while the
// overlay is in use; nil is an empty base.
func New[K comparable, V any](base map[K]V) *Map[K, V] {
	return &Map[K, V]{base: base}
}

// Get returns the value of k: the overlay's own if it has one, else the
// base's unless k was deleted.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.local[k]; ok {
		return v, true
	}
	if m.gone[k] {
		var zero V
		return zero, false
	}
	v, ok := m.base[k]
	return v, ok
}

// Set gives k the value v in the overlay.
func (m *Map[K, V]) Set(k K, v V) {
	if m.local == nil {
		m.local = map[K]V{}
	}
	m.local[k] = v
	delete(m.gone, k)
}

// Delete removes k from the overlay's view. A key the base holds is
// hidden by a tombstone; the base keeps it.
func (m *Map[K, V]) Delete(k K) {
	delete(m.local, k)
	if _, ok := m.base[k]; ok {
		if m.gone == nil {
			m.gone = map[K]bool{}
		}
		m.gone[k] = true
	}
}

// Flat returns the overlay's view as one map: the base itself when the
// overlay holds no writes or deletes, else a new map. Callers must not
// write to it.
func (m *Map[K, V]) Flat() map[K]V {
	if len(m.local) == 0 && len(m.gone) == 0 {
		return m.base
	}
	flat := make(map[K]V, len(m.base)+len(m.local))
	for k, v := range m.base {
		if !m.gone[k] {
			flat[k] = v
		}
	}
	for k, v := range m.local {
		flat[k] = v
	}
	return flat
}
