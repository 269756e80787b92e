package pipeline

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// coldPrograms returns the first n seed-1 generated programs, the
// programs the cold-run benchmark meets first.
func coldPrograms(n int) []parityProgram {
	ps := make([]parityProgram, n)
	for i := range ps {
		ps[i] = parityProgram{src: gen.Generate(gen.SeedAt(1, i)).Source}
	}
	return ps
}

// BenchmarkColdCompile is a managed front-end compile of a never-seen
// program: seed-1 generated programs continuing the shared libc prefix,
// the native optimizer left out.
func BenchmarkColdCompile(b *testing.B) {
	ps := coldPrograms(200)
	testPrefixes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linked(ps[i%len(ps)], false); err != nil {
			b.Fatal(err)
		}
	}
}

// coldCompileBytes returns the average bytes a cold managed compile of ps
// allocates, after one untimed pass that builds the prefix and fills the
// front end's reusable scratch.
func coldCompileBytes(t testing.TB, ps []parityProgram) float64 {
	for _, p := range ps {
		if _, err := linked(p, false); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range ps {
		if _, err := linked(p, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ps))
}
