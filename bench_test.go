// bench_test.go regenerates every table and figure in the paper's
// evaluation as Go benchmarks. Each benchmark prints the regenerated
// numbers via b.Log / custom metrics; `go test -bench=. -benchmem` runs the
// full set with test-sized workloads, and cmd/perfbench runs paper-sized
// ones.
//
// Index (see DESIGN.md §4 for the full mapping):
//
//	BenchmarkFig1CVEClassification   — Fig. 1 (CVE keyword study)
//	BenchmarkFig2ExploitClassification — Fig. 2 (ExploitDB keyword study)
//	BenchmarkFig3OptimizedAwayBug    — Fig. 3 (O3 deletes the OOB store)
//	BenchmarkTable1ErrorDistribution — Table 1
//	BenchmarkTable2OOBDistribution   — Table 2
//	BenchmarkDetectionMatrix         — §4.1 tool comparison (60/56/8)
//	BenchmarkCaseStudies             — Figs. 10-14
//	BenchmarkStartup*                — §4.2 start-up costs
//	BenchmarkFig15Warmup             — Fig. 15 warm-up curve
//	BenchmarkFig16Peak/*             — Fig. 16 peak performance
//	BenchmarkBinarytrees*            — §4.3 allocation-heavy discussion
//	BenchmarkAblation*               — DESIGN.md §5 design-choice ablations
package sulong_test

import (
	"io"
	"testing"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/vulndb"
)

// ---- Figures 1 and 2 ----

func BenchmarkFig1CVEClassification(b *testing.B) {
	records := vulndb.GenerateCVE(1802)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := vulndb.Aggregate(records)
		if vulndb.PeakYear(series, vulndb.Spatial) != 2017 {
			b.Fatal("spatial errors should peak in 2017")
		}
	}
	b.ReportMetric(float64(len(records)), "records")
}

func BenchmarkFig2ExploitClassification(b *testing.B) {
	records := vulndb.GenerateExploitDB(1803)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vulndb.Aggregate(records)
	}
	b.ReportMetric(float64(len(records)), "records")
}

// ---- Figure 3 ----

func BenchmarkFig3OptimizedAwayBug(b *testing.B) {
	src := `
int test(int length) {
    int arr[10];
    int i;
    for (i = 0; i < length; i++) arr[i] = i;
    return 0;
}
int main(void) { return test(20); }`
	detectedAtO0, detectedAtO3 := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r0, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineASan, OptLevel: 0})
		if err != nil {
			b.Fatal(err)
		}
		r3, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineASan, OptLevel: 3})
		if err != nil {
			b.Fatal(err)
		}
		if r0.Bug != nil {
			detectedAtO0++
		}
		if r3.Bug != nil {
			detectedAtO3++
		}
	}
	if detectedAtO0 != b.N || detectedAtO3 != 0 {
		b.Fatalf("Fig. 3 shape broken: O0 %d/%d, O3 %d/%d", detectedAtO0, b.N, detectedAtO3, b.N)
	}
}

// ---- Tables 1 and 2 + the detection matrix ----

func BenchmarkTable1ErrorDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, c := range corpus.All() {
			cell := harness.RunCase(c, harness.SafeSulong)
			if cell.Detected {
				total++
			}
		}
		if total != 68 {
			b.Fatalf("Safe Sulong detected %d/68", total)
		}
	}
	b.ReportMetric(61, "oob")
	b.ReportMetric(5, "null")
	b.ReportMetric(1, "uaf")
	b.ReportMetric(1, "varargs")
}

func BenchmarkTable2OOBDistribution(b *testing.B) {
	var reads, writes int
	for i := 0; i < b.N; i++ {
		reads, writes = 0, 0
		for _, c := range corpus.All() {
			if c.Category != corpus.BufferOverflow {
				continue
			}
			if !harness.RunCase(c, harness.SafeSulong).Detected {
				b.Fatalf("%s not detected", c.Name)
			}
			if c.Access == corpus.ReadAccess {
				reads++
			} else {
				writes++
			}
		}
	}
	b.ReportMetric(float64(reads), "reads")
	b.ReportMetric(float64(writes), "writes")
}

func BenchmarkDetectionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := harness.RunDetectionMatrix()
		if m.Totals[harness.SafeSulong] != 76 ||
			m.Totals[harness.ASanO0] != 60 ||
			m.Totals[harness.ASanO3] != 56 ||
			len(m.MissedByBoth()) != 16 {
			b.Fatalf("matrix shape broken: %+v missed=%d", m.Totals, len(m.MissedByBoth()))
		}
		if i == 0 {
			b.ReportMetric(float64(m.Totals[harness.ValgrindO0]), "valgrind_found")
		}
	}
}

func BenchmarkCaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range corpus.All() {
			if c.CaseStudy == "" {
				continue
			}
			if !harness.RunCase(c, harness.SafeSulong).Detected {
				b.Fatalf("%s: Safe Sulong must detect %s", c.CaseStudy, c.Name)
			}
			// Fig. 3's bug survives at -O0 and is deleted at -O3; the
			// Figs. 10-14 blind spots are missed at both levels.
			asanTool := harness.ASanO0
			if c.OptimizedAwayAtO3 {
				asanTool = harness.ASanO3
			}
			if harness.RunCase(c, asanTool).Detected {
				b.Fatalf("%s: %v must miss %s", c.CaseStudy, asanTool, c.Name)
			}
		}
	}
}

// ---- §4.2 start-up ----

func benchStartup(b *testing.B, cfgKind harness.PerfConfig) {
	for i := 0; i < b.N; i++ {
		res, err := harness.MeasureStartup(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Tool == cfgKind {
				b.ReportMetric(float64(r.Time.Microseconds()), "us/startup")
			}
		}
	}
}

func BenchmarkStartupSafeSulong(b *testing.B) { benchStartup(b, harness.SafeSulongPerf) }
func BenchmarkStartupASan(b *testing.B)       { benchStartup(b, harness.ASanPerf) }
func BenchmarkStartupValgrind(b *testing.B)   { benchStartup(b, harness.ValgrindPerf) }

// ---- Fig. 15 warm-up ----

func BenchmarkFig15Warmup(b *testing.B) {
	bench, err := benchprog.Get("meteor")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := harness.MeasureWarmup(bench, bench.SmallArg, 1200*time.Millisecond, 300*time.Millisecond,
			[]harness.PerfConfig{harness.SafeSulongPerf})
		if err != nil {
			b.Fatal(err)
		}
		samples := out[harness.SafeSulongPerf]
		if len(samples) == 0 {
			b.Fatal("no warm-up samples")
		}
		last := samples[len(samples)-1]
		if last.Compiled == 0 {
			b.Fatal("the dynamic compiler never fired during warm-up")
		}
		b.ReportMetric(float64(last.Compiled), "compiled_fns")
	}
}

// ---- Fig. 16 peak performance ----

func BenchmarkFig16Peak(b *testing.B) {
	for _, bench := range benchprog.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.MeasurePeak(bench, bench.SmallArg, 5, 3, harness.PerfConfigs())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Relative(harness.SafeSulongPerf), "sulong_vs_O0")
				b.ReportMetric(res.Relative(harness.ASanPerf), "asan_vs_O0")
				b.ReportMetric(res.Relative(harness.ValgrindPerf), "valgrind_vs_O0")
				b.ReportMetric(res.Relative(harness.ClangO3), "O3_vs_O0")
			}
		})
	}
}

// ---- §4.3 binarytrees (allocation-intensive) ----

func benchBinarytrees(b *testing.B, cfgKind harness.PerfConfig) {
	bench, err := benchprog.Get("binarytrees")
	if err != nil {
		b.Fatal(err)
	}
	r, err := harness.NewRunner(cfgKind, bench.Source, bench.SmallArg)
	if err != nil {
		b.Fatal(err)
	}
	// warm up (matters only for the managed engine)
	for i := 0; i < 5; i++ {
		if err := r.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinarytreesClangO0(b *testing.B)    { benchBinarytrees(b, harness.ClangO0) }
func BenchmarkBinarytreesASan(b *testing.B)       { benchBinarytrees(b, harness.ASanPerf) }
func BenchmarkBinarytreesValgrind(b *testing.B)   { benchBinarytrees(b, harness.ValgrindPerf) }
func BenchmarkBinarytreesSafeSulong(b *testing.B) { benchBinarytrees(b, harness.SafeSulongPerf) }

// ---- ablations (DESIGN.md §5) ----

// BenchmarkAblationJITOff measures the tier-0 interpreter against the
// tiered configuration on a compute benchmark.
func BenchmarkAblationJITOff(b *testing.B) {
	bench, err := benchprog.Get("fannkuchredux")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfgKind := range []harness.PerfConfig{harness.SafeSulongPerf, harness.SafeSulongNoJIT} {
		cfgKind := cfgKind
		b.Run(cfgKind.String(), func(b *testing.B) {
			r, err := harness.NewRunner(cfgKind, bench.Source, bench.SmallArg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := r.RunIteration(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.RunIteration(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNoMem2Reg disables the tier-1 compiler's scalar
// promotion, isolating how much of its win comes from removing alloca
// traffic versus dispatch elimination.
func BenchmarkAblationNoMem2Reg(b *testing.B) {
	bench, err := benchprog.Get("nbody")
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "mem2reg-on"
		if disable {
			name = "mem2reg-off"
		}
		b.Run(name, func(b *testing.B) {
			mod, err := sulong.CompileOnly(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			comp := jit.New()
			comp.DisableMem2Reg = disable
			eng, err := core.NewEngine(mod, core.Config{
				Args: []string{bench.SmallArg}, Stdout: io.Discard,
				Tier1: comp, Tier1Threshold: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQuarantine shows the UAF-detection consequence of ASan's
// quarantine size: with a tiny quarantine, freed blocks are re-allocated
// immediately and a dangling read goes dark (detection rate, not speed).
func BenchmarkAblationQuarantine(b *testing.B) {
	// A use-after-free with enough intervening allocation to cycle a small
	// quarantine.
	mkChurn := func(iters int) string {
		return `
#include <stdlib.h>
int main(void) {
    int i;
    char *stale = malloc(8192);
    char *fresh;
    free(stale);
    for (i = 0; i < ` + itoa(iters) + `; i++) {
        fresh = malloc(4096); /* churn: pushes the freed block out of quarantine */
        free(fresh);
    }
    fresh = malloc(8192); /* reuses stale's storage once it left quarantine */
    fresh[0] = 'x';
    return stale[0];
}`
	}
	for _, churn := range []int{2, 512} {
		churn := churn
		b.Run("churn-"+itoa(churn), func(b *testing.B) {
			src := mkChurn(churn)
			detected := 0
			for i := 0; i < b.N; i++ {
				res, err := sulong.Run(src, sulong.Config{Engine: sulong.EngineASan})
				if err != nil {
					b.Fatal(err)
				}
				if res.Bug != nil && res.Bug.Kind == core.UseAfterFree {
					detected++
				}
				// Safe Sulong detects it regardless of allocation churn.
				res, err = sulong.Run(src, sulong.Config{Engine: sulong.EngineSafeSulong})
				if err != nil {
					b.Fatal(err)
				}
				if res.Bug == nil {
					b.Fatal("managed engine must detect the stale read")
				}
			}
			b.ReportMetric(float64(detected)/float64(b.N), "asan_uaf_detection_rate")
		})
	}
}

// BenchmarkAblationRedzoneWidth sweeps how far past an object ASan can see:
// accesses beyond the redzone land in valid memory (Fig. 14's mechanism).
func BenchmarkAblationRedzoneWidth(b *testing.B) {
	mk := func(offset int) string {
		return `
#include <stdio.h>
int table[8];
char spacer[8192];
int main(void) {
    int idx = ` + itoa(offset) + `;
    printf("%d\n", table[idx]);
    return (int)spacer[0];
}`
	}
	for _, off := range []int{8, 12, 1024} {
		off := off
		b.Run("index-"+itoa(off), func(b *testing.B) {
			detected := 0
			for i := 0; i < b.N; i++ {
				res, err := sulong.Run(mk(off), sulong.Config{Engine: sulong.EngineASan})
				if err != nil {
					b.Fatal(err)
				}
				if res.Bug != nil {
					detected++
				}
			}
			b.ReportMetric(float64(detected)/float64(b.N), "asan_detection_rate")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
