package sulong_test

import (
	"errors"
	"testing"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/corpus"
)

// FuzzCompileFor feeds arbitrary sources to CompileFor in each toolchain
// view: the managed flavor and the native one at -O0 and -O3. Every input
// must compile or fail with an ordinary error; a compiler panic, which
// CompileFor contains as a *core.InternalError, is a finding. The seeds are
// the corpus and the benchmark programs, so plain `go test` runs them.
func FuzzCompileFor(f *testing.F) {
	for _, c := range corpus.All() {
		f.Add(c.Source)
	}
	for _, b := range benchprog.All() {
		f.Add(b.Source)
	}
	configs := []sulong.Config{
		{Engine: sulong.EngineSafeSulong},
		{Engine: sulong.EngineNative},
		{Engine: sulong.EngineNative, OptLevel: 3},
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, cfg := range configs {
			mod, err := sulong.CompileFor(src, cfg)
			var ie *core.InternalError
			if errors.As(err, &ie) {
				t.Fatalf("%s -O%d: compiler panic: %v\n%s", cfg.Engine, cfg.OptLevel, ie.Panic, ie.Stack)
			}
			sulong.ReleaseModule(mod)
		}
	})
}
