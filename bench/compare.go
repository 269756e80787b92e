package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the repository root when run from bench/).
func loadSpec() (*spec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, for every metric the two reports share, both
// medians with their quartiles and the change, judged against the metric's
// bound from BENCHMARK.json or, for metrics without one, against the wider
// of the two quartile spreads. An exact counter that differs is flagged
// whatever its size. It reports whether nothing regressed or differed.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Workload != b.Workload {
		return false, fmt.Errorf("reports are of different workloads: %s vs %s", a.Workload, b.Workload)
	}
	bounds := map[string]float64{}
	if s, err := loadSpec(); err == nil {
		for _, m := range s.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	inB := map[string]metric{}
	for _, m := range b.Metrics {
		inB[m.Name] = m
	}
	fmt.Fprintf(w, "workload %s: %s (seed %d) vs %s (seed %d)\n", a.Workload, pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-32s %-6s %24s %24s %9s %7s  %s\n", "metric", "unit", "a median [q1, q3]", "b median [q1, q3]", "delta", "bound", "verdict")
	ok := true
	for _, ma := range a.Metrics {
		mb, found := inB[ma.Name]
		if !found {
			continue
		}
		verdict, band := compareMetric(ma, mb, bounds)
		if verdict == "REGRESSION" || verdict == "DIFFERS" {
			ok = false
		}
		fmt.Fprintf(w, "%-32s %-6s %24s %24s %+8.2f%% %7s  %s\n", ma.Name, ma.Unit, quart(ma), quart(mb), 100*relDelta(ma.Value, mb.Value), band, verdict)
	}
	if !a.Correct || !b.Correct {
		fmt.Fprintf(w, "correctness: a %v (%d failed), b %v (%d failed)\n", a.Correct, a.Failed, b.Correct, b.Failed)
		ok = false
	}
	return ok, nil
}

// compareMetric judges b against a. The band is the bound when the metric
// has one, otherwise the noise band; a metric reported without a spread
// gets no verdict.
func compareMetric(a, b metric, bounds map[string]float64) (verdict, band string) {
	if a.Exact {
		if a.Value != b.Value {
			return "DIFFERS", "exact"
		}
		return "same", "exact"
	}
	d := relDelta(a.Value, b.Value)
	worse := d
	if a.Better == "higher" {
		worse = -d
	}
	if bound, has := bounds[a.Name]; has {
		band = fmt.Sprintf("%.0f%%", 100*bound)
		if worse > bound {
			return "REGRESSION", band
		}
		return "within bound", band
	}
	noise := math.Max(relSpread(a), relSpread(b))
	if noise == 0 {
		return "", "-"
	}
	band = fmt.Sprintf("±%.1f%%", 100*noise)
	switch {
	case math.Abs(d) <= noise:
		return "within noise", band
	case a.Better == "":
		return "changed", band
	case worse > 0:
		return "worse", band
	}
	return "better", band
}

func relDelta(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}

func relSpread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

func quart(m metric) string {
	if m.Q1 == m.Q3 {
		return fmt.Sprintf("%.4g", m.Value)
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m.Value, m.Q1, m.Q3)
}
