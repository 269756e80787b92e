package harness

import (
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jit"
)

func TestRunCaseReportsInfrastructureErrors(t *testing.T) {
	c := corpus.Case{Name: "broken", Source: "this is not C"}
	cell := RunCase(c, SafeSulong)
	if cell.RunError == "" {
		t.Error("unparseable source should surface a RunError")
	}
}

func TestCaseStudiesRender(t *testing.T) {
	out := CaseStudies()
	for _, want := range []string{"fig10", "fig11", "fig12", "fig13", "fig14", "SafeSulong", "DETECTED"} {
		if !strings.Contains(out, want) {
			t.Errorf("case studies output missing %q", want)
		}
	}
}

func TestMeasureStartupShape(t *testing.T) {
	res, err := MeasureStartup(2)
	if err != nil {
		t.Fatal(err)
	}
	times := map[PerfConfig]time.Duration{}
	for _, r := range res {
		times[r.Tool] = r.Time
		if r.Time <= 0 {
			t.Errorf("%v: non-positive time", r.Tool)
		}
	}
	// The paper's §4.2 ordering: Safe Sulong starts slowest (it parses
	// libc and the program at startup); the precompiled native binary is
	// fastest.
	if times[SafeSulongPerf] <= times[ClangO0] {
		t.Errorf("Safe Sulong startup (%v) should exceed native (%v)", times[SafeSulongPerf], times[ClangO0])
	}
}

func TestRunnersProduceIterations(t *testing.T) {
	b, err := benchprog.Get("mandelbrot")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []PerfConfig{ClangO0, ClangO3, ASanPerf, ValgrindPerf, SafeSulongPerf, SafeSulongNoJIT} {
		r, err := NewRunner(cfg, b.Source, "8")
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		defer r.Close()
		iters := 1
		if cfg == SafeSulongPerf {
			// The bench peak workload's two set-up iterations. mandelbrot's
			// loops live in main, whose back edges in the first iteration
			// carry it past DefaultTier1Threshold, so the second call of
			// main runs compiled.
			iters = 2
		}
		for i := 0; i < iters; i++ {
			if err := r.RunIteration(); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
		}
		if cfg == SafeSulongPerf {
			eng := r.(*managedRunner).eng
			if !eng.Compiled(eng.Module().FuncIndex("main")) {
				t.Errorf("%v did not compile main in %d iterations", cfg, iters)
			}
		}
	}
}

// TestMeasurePeakDefaultWarmupCompilesMain: with the default warm-up,
// Fig. 16's Safe Sulong column reaches the loops that live in main, which
// is called once per iteration and compiles at its second call. The replay
// names the compiles that the same iteration count produces; MeasurePeak
// must report exactly as many.
func TestMeasurePeakDefaultWarmupCompilesMain(t *testing.T) {
	b, err := benchprog.Get("mandelbrot")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasurePeak(b, b.SmallArg, 0, 1, []PerfConfig{SafeSulongPerf})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := sulong.CompileOnly(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	eng, err := core.NewEngine(mod, core.Config{
		Args:           []string{b.SmallArg},
		Stdout:         io.Discard,
		Tier1:          jit.New(),
		Tier1Threshold: DefaultTier1Threshold,
		OnCompile:      func(name string) { names = append(names, name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultPeakWarmups+1; i++ {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	got := res.JIT[SafeSulongPerf].Compiled
	if !slices.Contains(names, "main") || got != len(names) {
		t.Errorf("MeasurePeak compiled %d functions; %d iterations compile %v, main included", got, DefaultPeakWarmups+1, names)
	}
}

func TestPeakRelative(t *testing.T) {
	p := PeakResult{Bench: "x", Times: map[PerfConfig]time.Duration{
		ClangO0:  100 * time.Millisecond,
		ASanPerf: 250 * time.Millisecond,
	}}
	if r := p.Relative(ASanPerf); r != 2.5 {
		t.Errorf("Relative = %v", r)
	}
	if p.Relative(ClangO3) != 0 {
		t.Error("missing config should report 0")
	}
	if !strings.Contains(RenderPeak([]PeakResult{p}, []PerfConfig{ClangO0, ASanPerf}), "2.50x") {
		t.Error("RenderPeak formatting broken")
	}
}

func TestMeasureWarmupBuckets(t *testing.T) {
	b, err := benchprog.Get("fannkuchredux")
	if err != nil {
		t.Fatal(err)
	}
	out, err := MeasureWarmup(b, "5", 300*time.Millisecond, 100*time.Millisecond,
		[]PerfConfig{SafeSulongPerf})
	if err != nil {
		t.Fatal(err)
	}
	samples := out[SafeSulongPerf]
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	total := 0
	for _, s := range samples {
		total += s.Iterations
	}
	if total == 0 {
		t.Error("no iterations completed")
	}
}
