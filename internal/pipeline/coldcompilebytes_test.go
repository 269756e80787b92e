//go:build !race

package pipeline

import "testing"

// coldCompileBudget bounds the bytes a cold managed compile allocates, on
// average over seed-1 programs 0-199: 163 kB measured on a 2-vCPU VM, plus
// a fifth. That was at GOMAXPROCS 2 while the block scratch sat in a
// sync.Pool; with one free list for every P it reads 153 kB at 1 and 2. With a 96-byte token, a slice per block grown by doubling and
// the prefix's tables cloned per program, the same compile allocated
// 376 kB.
const coldCompileBudget = 163_000 * 6 / 5

// TestColdCompileBytes pins what a cold compile allocates: close to what
// the module keeps, its tokens lexed once into one slice, its blocks
// copied once into one exact-size slice per function, the libc prefix's
// tables read through overlays (the race detector's allocations would
// swamp it).
func TestColdCompileBytes(t *testing.T) {
	if got := coldCompileBytes(t, coldPrograms(200)); got > coldCompileBudget {
		t.Errorf("a cold compile allocates %.0f bytes on average, budget %d", got, coldCompileBudget)
	} else {
		t.Logf("a cold compile allocates %.0f bytes on average, budget %d", got, coldCompileBudget)
	}
}
