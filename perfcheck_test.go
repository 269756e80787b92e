package sulong_test

import (
	"testing"

	"repro/internal/benchprog"
	"repro/internal/harness"
)

// TestPerfCheckSmoke is `make perfcheck`'s runtime half: one benchgame
// program under every performance configuration — the native anchors, the
// sanitized engines, and each managed tiering mode — for a handful of
// iterations each, under the race detector. The managed configurations must
// compile without a single bail-out: a bail never changes behavior, but on
// the benchmark programs the tier-2 layer was built for, silently staying in
// the interpreter is a performance regression this gate exists to catch.
func TestPerfCheckSmoke(t *testing.T) {
	b, err := benchprog.Get("nbody")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []harness.PerfConfig{
		harness.ClangO0, harness.ClangO3, harness.ASanPerf, harness.ValgrindPerf,
		harness.SafeSulongNoJIT, harness.SafeSulongPerf,
		harness.SafeSulongAsync, harness.SafeSulongAsyncOSR,
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			r, err := harness.NewRunner(cfg, b.Source, b.SmallArg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Enough iterations to cross the tier-1 compile threshold (25)
			// so the bail-out assertion below is about compiled code, not a
			// cold interpreter.
			for i := 0; i < 30; i++ {
				if err := r.RunIteration(); err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
			}
			es, js := r.Stats()
			if js.Bailed != 0 {
				t.Errorf("%d bail-out(s) on a benchgame program: %v", js.Bailed, js.BailReasons)
			}
			switch cfg {
			case harness.SafeSulongPerf:
				if js.Compiled == 0 {
					t.Error("tier-1 compiled nothing after 30 iterations")
				}
			case harness.SafeSulongAsync, harness.SafeSulongAsyncOSR:
				// Async installs are timing-dependent, but after 30 warm
				// iterations at threshold 25 the hot functions must have been
				// published at a dispatch point.
				if es.Tier1Funcs == 0 && es.OSRCompiled == 0 {
					t.Error("async tier-up installed nothing after 30 iterations")
				}
			}
		})
	}
}
