package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// Metric roles. End-to-end metrics are what a user of the system sees and
// carry a regression bound in BENCHMARK.json; per-layer metrics attribute
// the wall clock to the pipeline, engine, compiler and machine layers and
// come from the traced replay; named metrics are the workload's own names
// for its end-to-end numbers (cold_run_ms_p99, peak_ms.asan, ...) and the
// layer numbers only some workloads exercise.
const (
	roleEndToEnd = "end_to_end"
	roleLayer    = "per_layer"
	roleNamed    = "named"
)

// metric is one reported number with the spread behind it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Role   string  `json:"role"`
	Better string  `json:"better,omitempty"` // "lower" or "higher"; empty for diagnostics
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// N is the sample count behind Value: rounds for a throughput, samples
	// for a latency percentile, set-ups for setup_s.
	N int `json:"n"`
	// Exact marks a deterministic count: two runs of the same code with the
	// same seed must report the same value, so any difference is a finding.
	Exact bool `json:"exact,omitempty"`
}

// spread builds a metric whose value is the median of xs, with quartiles.
func spread(name, unit, role, better string, xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Role: role, Better: better, Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

// single builds a metric from one measured value.
func single(name, unit, role, better string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Role: role, Better: better, Value: v, Q1: v, Q3: v, N: n}
}

// count builds an exact counter metric.
func count(name, role, better string, v int64) metric {
	m := single(name, "count", role, better, float64(v), 1)
	m.Exact = true
	return m
}

// ratio builds a ratio metric (hit ratios, shares, overheads); better is
// empty for a share, which no direction improves.
func ratio(name, role, better string, v float64) metric {
	return single(name, "ratio", role, better, v, 1)
}

// groupedLatency builds a latency metric over grouped samples: value and
// quartiles are each the geomean over groups of that group's statistic
// (the median iteration time of each program, say), n the sample count.
func groupedLatency(name, role string, groups map[string][]float64) metric {
	var q1s, meds, q3s []float64
	n := 0
	for _, xs := range groups {
		if len(xs) == 0 {
			continue
		}
		q1, med, q3 := quartiles(xs)
		q1s, meds, q3s = append(q1s, q1), append(meds, med), append(q3s, q3)
		n += len(xs)
	}
	return metric{Name: name, Unit: "ms", Role: role, Better: "lower", Value: geomean(meds), Q1: geomean(q1s), Q3: geomean(q3s), N: n}
}

// requestsMS collects the rounds' ungrouped request latencies in ms.
func requestsMS(rs []roundResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, msAll(r.requests[""])...)
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed like Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads recorded here are the ones the
// calibration in README.md reports.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median of xs (xs need not be sorted).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// geomean of positive values; zero when xs is empty or holds a non-positive
// value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// maxRSSMB is the process's peak resident set size in MiB, from getrusage.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
