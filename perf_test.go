package sulong_test

import (
	"testing"
	"time"

	"repro/internal/benchprog"
	"repro/internal/harness"
)

func TestPeakQuick(t *testing.T) {
	b, err := benchprog.Get("nbody")
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.MeasurePeak(b, b.SmallArg, 3, 3, harness.PerfConfigs())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range harness.PerfConfigs() {
		t.Logf("%-14v %8v  %.2fx", cfg, res.Times[cfg], res.Relative(cfg))
	}
}

func TestWarmupQuick(t *testing.T) {
	t.Parallel()
	b, err := benchprog.Get("meteor")
	if err != nil {
		t.Fatal(err)
	}
	out, err := harness.MeasureWarmup(b, b.SmallArg, 900*time.Millisecond, 300*time.Millisecond,
		[]harness.PerfConfig{harness.SafeSulongPerf, harness.ASanPerf})
	if err != nil {
		t.Fatal(err)
	}
	for cfg, samples := range out {
		for _, s := range samples {
			t.Logf("%v bucket %d: %d iters, %d compiled", cfg, s.Bucket, s.Iterations, s.Compiled)
		}
	}
}
