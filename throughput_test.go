package sulong_test

// Warm-vs-cold parity pin for the compile-once/run-many machinery, run under
// -race by `make throughputcheck`. A warm run — executable-code cache hit,
// engine taken from the reuse pool — must be observationally indistinguishable
// from a cold compile: byte-identical stdout, exit code, Stats.Steps,
// Stats.Calls, and rendered diagnostics, across the full bug corpus, for
// tier-0, forced tier-1, and async+OSR tiering, clean and under injected
// allocation faults.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/ir"
)

// throughputTiers are the tier selections the pin sweeps: interpreter only,
// compile-on-first-call, and background tier-up with on-stack replacement at
// the first hot back-edge — the three execution models whose observables the
// code cache must not move.
var throughputTiers = []struct {
	name string
	cfg  func(*sulong.Config)
}{
	{"tier0", func(*sulong.Config) {}},
	{"jit", func(c *sulong.Config) { c.JIT = true; c.JITThreshold = 1 }},
	{"osr", func(c *sulong.Config) {
		c.JIT = true
		c.JITThreshold = 1
		c.JITAsync = true
		c.OSRThreshold = 1
	}},
}

// runPin executes one corpus case once. A cold run (cold != nil) runs the
// case's privately compiled module with NoCache: a fresh engine, no code
// cache. A warm run compiles through the module cache and uses both.
func runPin(t *testing.T, c corpus.Case, tier func(*sulong.Config), failNth int64, cold *ir.Module) sulong.Result {
	t.Helper()
	cfg := sulong.Config{
		Engine:    sulong.EngineSafeSulong,
		Args:      c.Args,
		MaxSteps:  harness.DefaultMaxSteps,
		FaultPlan: fault.Plan{FailNth: failNth},
		NoCache:   cold != nil,
	}
	if c.Stdin != "" {
		cfg.Stdin = strings.NewReader(c.Stdin)
	}
	tier(&cfg)
	var res sulong.Result
	var err error
	if cold != nil {
		res, err = sulong.RunModule(cold, cfg)
	} else {
		res, err = sulong.Run(c.Source, cfg)
	}
	if err != nil {
		t.Fatalf("%s (cold=%v, failNth=%d): %v", c.Name, cold != nil, failNth, err)
	}
	return res
}

// observables flattens the parts of a Result the pin compares into one
// printable string, so a mismatch reports every divergent field at once.
func observables(r sulong.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d steps=%d calls=%d\n", r.ExitCode, r.Stats.Steps, r.Stats.Calls)
	fmt.Fprintf(&b, "stdout=%q\n", r.Stdout)
	for _, d := range r.Diagnostics {
		b.WriteString(d.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWarmColdCacheParity is the acceptance pin: for every corpus case, every
// tier selection, and fault plans {none, FailNth 1, FailNth 2}, a cold run,
// a warm run, and a second warm run (the one that actually hits the code
// cache and a pooled engine) must agree byte-for-byte on every observable.
func TestWarmColdCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep skipped in -short mode")
	}
	// Each case's cold module is compiled once, with NoCache, by whichever
	// tier's subtest needs it first, and every tier and FailNth runs it.
	coldModule := map[string]func() (*ir.Module, error){}
	for _, c := range corpus.All() {
		src := c.Source
		coldModule[c.Name] = sync.OnceValues(func() (*ir.Module, error) {
			return sulong.CompileFor(src, sulong.Config{Engine: sulong.EngineSafeSulong, NoCache: true})
		})
	}
	for _, tier := range throughputTiers {
		tier := tier
		t.Run(tier.name, func(t *testing.T) {
			for _, c := range corpus.All() {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					t.Parallel()
					mod, err := coldModule[c.Name]()
					if err != nil {
						t.Fatalf("%s: cold compile: %v", c.Name, err)
					}
					for _, failNth := range []int64{0, 1, 2} {
						cold := observables(runPin(t, c, tier.cfg, failNth, mod))
						warm1 := observables(runPin(t, c, tier.cfg, failNth, nil))
						warm2 := observables(runPin(t, c, tier.cfg, failNth, nil))
						if warm1 != cold {
							t.Errorf("failNth=%d: first warm run diverges from cold:\ncold:\n%s\nwarm:\n%s",
								failNth, cold, warm1)
						}
						if warm2 != cold {
							t.Errorf("failNth=%d: cache-hit run diverges from cold:\ncold:\n%s\nwarm:\n%s",
								failNth, cold, warm2)
						}
					}
				})
			}
		})
	}
}
