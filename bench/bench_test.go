package main

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/campaign"
	"repro/internal/harness"
)

// TestWorkloadsEmitSpecMetrics runs every workload at smoke-test size with
// the traced replay and checks that it passes its correctness and parity
// checks and emits every metric BENCHMARK.json names, with its unit and in
// its role.
func TestWorkloadsEmitSpecMetrics(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := run(options{workload: name, seed: 3, seconds: 0.5, trace: true, workdir: t.TempDir(), small: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("%d failures: %q", rep.Failed, rep.Failures)
			}
			if rep.Attempted < 1 {
				t.Fatalf("attempted %d operations", rep.Attempted)
			}
			emitted := map[string]metric{}
			for _, m := range rep.Metrics {
				emitted[m.Name] = m
			}
			for _, group := range []struct {
				role    string
				metrics []specMetric
			}{{roleEndToEnd, s.EndToEnd}, {roleLayer, s.PerLayer}} {
				for _, want := range group.metrics {
					got, ok := emitted[want.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s not emitted", group.role, want.Name)
					case got.Unit != want.Unit || got.Role != group.role || got.Better != want.Better:
						t.Errorf("%s: emitted as %s in %s, %q better; BENCHMARK.json says %s in %s, %q better",
							want.Name, got.Unit, got.Role, got.Better, want.Unit, group.role, want.Better)
					case group.role == roleEndToEnd && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want positive", want.Name, got.Value)
					}
				}
			}
		})
	}
}

// TestStepLimitOvershootExcusesOnlyTheKnownCase checks that only a tier
// stopping a few steps after tier-0 hit the campaign's step budget is
// excused, and every other tier divergence still fails the run.
func TestStepLimitOvershootExcusesOnlyTheKnownCase(t *testing.T) {
	timeout := func(steps int64) string {
		return harness.Outcome{Class: "timeout", Steps: steps, Report: "execution limit exceeded: steps"}.Signature()
	}
	finding := func(tier, tierSig, tier0Sig string) campaign.Finding {
		return campaign.Finding{Kind: campaign.KindTierDivergence, Signature: fmt.Sprintf("%s vs tier-0: {%s} != {%s}", tier, tierSig, tier0Sig)}
	}
	budget := int64(campaignMaxSteps + 1)
	clean := harness.Outcome{Class: "clean", Steps: 500}
	for _, c := range []struct {
		name string
		f    campaign.Finding
		want bool
	}{
		{"one block past the budget", finding("tier-1", timeout(budget+14), timeout(budget)), true},
		{"async tier one block past", finding("async+osr", timeout(budget+14), timeout(budget)), true},
		{"far past the budget", finding("tier-1", timeout(budget+1000), timeout(budget)), false},
		{"stops before tier-0", finding("tier-1", timeout(budget-14), timeout(budget)), false},
		{"tier-0 not at the budget", finding("tier-1", timeout(budget+14), timeout(budget-100)), false},
		{"not a timeout", finding("tier-1", clean.Signature(), harness.Outcome{Class: "clean", Steps: 514}.Signature()), false},
		{"other field differs", finding("tier-1", harness.Outcome{Class: "timeout", Steps: budget + 14, Exit: 1}.Signature(), timeout(budget)), false},
		{"fault divergence", campaign.Finding{Kind: campaign.KindFaultDivergence, Signature: finding("tier-1", timeout(budget+14), timeout(budget)).Signature}, false},
	} {
		if got := stepLimitOvershoot(c.f); got != c.want {
			t.Errorf("%s: stepLimitOvershoot(%q) = %v, want %v", c.name, c.f.Signature, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the calibration uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
