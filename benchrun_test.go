package sulong

import (
	"testing"

	"repro/internal/benchprog"
)

// TestBenchProgramsRunEverywhere compiles and runs every benchmark at its
// small size under all four engines and checks output agreement.
func TestBenchProgramsRunEverywhere(t *testing.T) {
	t.Parallel()
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			var ref string
			for _, eng := range []Engine{EngineSafeSulong, EngineNative, EngineASan, EngineMemcheck} {
				res, err := Run(b.Source, Config{Engine: eng, Args: []string{b.SmallArg}, JIT: eng == EngineSafeSulong})
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if res.Bug != nil {
					t.Fatalf("%v: unexpected bug: %v", eng, res.Bug)
				}
				if res.Fault != nil {
					t.Fatalf("%v: fault: %v", eng, res.Fault)
				}
				if eng == EngineSafeSulong {
					ref = res.Stdout
					if ref == "" {
						t.Fatalf("no output")
					}
				} else if res.Stdout != ref {
					t.Errorf("%v output differs:\n got: %q\nwant: %q", eng, res.Stdout, ref)
				}
			}
		})
	}
}
