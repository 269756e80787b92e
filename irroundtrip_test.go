package sulong_test

import (
	"testing"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/ir"
)

// TestIRRoundTripOnRealModules prints and re-parses the full compiled module
// (program + interpreted libc) of every benchmark, then runs the re-parsed
// module clean and under FailNth 1 and compares it with the tier-parity
// table's reference run of the original in every observable Outcome.Diff
// compares. Steps, Calls and the diagnostics' source lines depend on every
// instruction, `!line` and `!ctype` included, surviving the textual IR
// format over tens of thousands of real instructions.
func TestIRRoundTripOnRealModules(t *testing.T) {
	for _, r := range benchRows() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			mod, err := sulong.CompileOnly(r.src)
			if err != nil {
				t.Fatal(err)
			}
			text1 := ir.Print(mod)
			mod2, err := ir.Parse(text1)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if err := ir.Verify(mod2); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if text1 != ir.Print(mod2) {
				t.Fatal("print/parse/print not a fixpoint")
			}
			for _, plan := range parityPlans[:2] {
				cfg := r.config(harness.Tier0, plan)
				cfg.NoCache = true
				got := harness.Classify(sulong.RunModule(mod2, cfg))
				if d := got.Diff(r.cell(harness.Tier0, plan, cold).out); d != "" {
					t.Errorf("%v: behaviour diverged after round trip: %s", plan, d)
				}
			}
		})
	}
}

// FuzzIRRoundTrip feeds arbitrary text to ir.Parse. Parsing must never
// panic, and a module that parses must print to a fixpoint: its printed
// text parses again and prints byte-identically. The seeds are the printed
// native-flavor modules (the user program's functions alone, `!line` and
// `!ctype` annotations included) of the corpus and the benchmark programs,
// so plain `go test` runs them.
func FuzzIRRoundTrip(f *testing.F) {
	srcs := []string{}
	for _, c := range corpus.All() {
		srcs = append(srcs, c.Source)
	}
	for _, b := range benchprog.All() {
		srcs = append(srcs, b.Source)
	}
	for _, src := range srcs {
		mod, err := sulong.CompileFor(src, sulong.Config{Engine: sulong.EngineNative})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ir.Print(mod))
	}
	f.Fuzz(func(t *testing.T, text string) {
		mod, err := ir.Parse(text)
		if err != nil {
			return
		}
		text1 := ir.Print(mod)
		mod1, err := ir.Parse(text1)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, text1)
		}
		if text2 := ir.Print(mod1); text2 != text1 {
			t.Fatalf("print/parse/print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
		}
	})
}
