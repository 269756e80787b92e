package sulong_test

import (
	"testing"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/harness"
)

// TestNativeLoopAllocaStack pins the native machines' treatment of
// block-scoped locals inside loops. The front end emits such allocas where
// they appear, so they re-execute every iteration; a native frame must hand
// back the same slot each time (as Clang's entry-block hoisting does) rather
// than carve fresh stack until the machine overflows. Both programs run long
// enough to exhaust the simulated stack under per-execution carving; their
// output must match Safe Sulong's.
func TestNativeLoopAllocaStack(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		bench, arg string
		engine     sulong.Engine
	}{
		{"fannkuchredux", "8", sulong.EngineNative},
		{"mandelbrot", "96", sulong.EngineASan},
	} {
		tc := tc
		t.Run(tc.bench+"/"+tc.engine.String(), func(t *testing.T) {
			t.Parallel()
			b, err := benchprog.Get(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			run := func(engine sulong.Engine) sulong.Result {
				cfg := sulong.Config{Engine: engine, Args: []string{tc.arg}}
				if engine == sulong.EngineSafeSulong {
					// Compiled, since the tier-parity table pins tier-1
					// to the interpreter's output.
					harness.Tier1.Configure(&cfg)
				}
				res, err := sulong.Run(b.Source, cfg)
				if err != nil {
					t.Fatalf("%v: %v", engine, err)
				}
				return res
			}
			want := run(sulong.EngineSafeSulong)
			got := run(tc.engine)
			if got.ExitCode != want.ExitCode || got.Stdout != want.Stdout {
				t.Errorf("%v diverges from Safe Sulong:\n%v exit=%d stdout=%q\nSafe Sulong exit=%d stdout=%q",
					tc.engine, tc.engine, got.ExitCode, got.Stdout, want.ExitCode, want.Stdout)
			}
		})
	}
}
