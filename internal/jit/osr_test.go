package jit

import (
	"slices"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/opt"
	"repro/internal/pipeline"
)

// TestOSRHeaderSetMatchesLoops: the loop-header set a unit caches for a
// function is exactly opt.Loops' headers, and CompileOSR through the cache
// answers with an entry for those blocks and no others, for every function
// of every corpus and benchmark program. Every program extends the one libc
// prefix, so its libc functions are answered from the shared prefix unit.
func TestOSRHeaderSetMatchesLoops(t *testing.T) {
	srcs := map[string]string{}
	for _, c := range corpus.All() {
		srcs[c.Name] = c.Source
	}
	for _, b := range benchprog.All() {
		srcs[b.Name] = b.Source
	}
	pc := pipeline.NewCache()
	cc := NewCodeCache(0)
	entries := 0
	for name, src := range srcs {
		res, err := pc.Compile(pipeline.Request{Source: src, Flavor: pipeline.FlavorManaged})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := res.Module
		comp := New()
		comp.Cache = cc
		e, err := core.NewEngine(m, core.Config{Tier1: comp})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for fidx, f := range m.Funcs {
			if f.IsDecl {
				continue
			}
			want := make([]bool, len(f.Blocks))
			for _, l := range opt.Loops(f) {
				want[l.Header] = true
			}
			for bi := range f.Blocks {
				fn := comp.CompileOSR(e, fidx, bi)
				if fn != nil {
					entries++
				}
				u := cc.unitFor(m, comp.fingerprint(), fidx)
				u.mu.Lock()
				oe := u.osr[fidx]
				u.mu.Unlock()
				if !slices.Equal(oe.headers, want) {
					t.Fatalf("%s: %s: cached headers %v, opt.Loops says %v", name, f.Name, oe.headers, want)
				}
				if oe.blocks != nil && (fn != nil) != want[bi] {
					t.Errorf("%s: %s: CompileOSR at block %d gave an entry: %v, want %v", name, f.Name, bi, fn != nil, want[bi])
				}
				if u.key.prefix != (fidx < len(m.Base().Funcs)) {
					t.Fatalf("%s: %s: served by unit %+v", name, f.Name, u.key)
				}
			}
		}
		e.Close()
	}
	if entries == 0 {
		t.Fatal("no OSR entry compiled")
	}
}
