package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

// matrixWorkload is the paper's §4.1 detection matrix — every corpus case
// under every tool — driven warm, the way a researcher reruns bugbench:
// compiled modules and engines come from the process-wide caches, so the
// per-cell overhead (cache lookup, engine acquire), tier-0 execution and
// the native machines with their ASan and memcheck instrumentation
// dominate. The pipeline stages work only in set-up, which is the cold
// first pass.
type matrixWorkload struct {
	o     options
	cases []corpus.Case // the corpus in a seed-chosen order
	last  *harness.MatrixResult
	refs  map[string]harness.Outcome // case|tool -> facade run, for replay parity
}

// matrixTools maps each matrix column to the facade engine and native opt
// level it runs.
var matrixTools = map[harness.Tool]struct {
	engine sulong.Engine
	opt    int
}{
	harness.SafeSulong: {sulong.EngineSafeSulong, 0},
	harness.ASanO0:     {sulong.EngineASan, 0},
	harness.ASanO3:     {sulong.EngineASan, 3},
	harness.ValgrindO0: {sulong.EngineMemcheck, 0},
	harness.ValgrindO3: {sulong.EngineMemcheck, 3},
	harness.NativeO0:   {sulong.EngineNative, 0},
}

func newMatrix(o options) *matrixWorkload {
	cases := corpus.All()
	// The seed orders the cases handed to the driver. The driver's results
	// are index-addressed, so every order must give the same matrix.
	rand.New(rand.NewSource(int64(o.seed))).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return &matrixWorkload{o: o, cases: cases}
}

func (m *matrixWorkload) workers() int { return 2 }

func (m *matrixWorkload) pass() *harness.MatrixResult {
	return harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: m.workers(), Cases: m.cases})
}

// setup is the cold first pass: every translation unit compiled, every
// engine built.
func (m *matrixWorkload) setup() error {
	m.last = m.pass()
	return nil
}

func (m *matrixWorkload) round(deadline time.Time) roundResult {
	r := roundResult{requests: map[string][]time.Duration{}}
	for time.Now().Before(deadline) {
		t0 := time.Now()
		res := m.pass()
		r.requests[""] = append(r.requests[""], time.Since(t0))
		r.ops += len(m.cases) * len(harness.Tools())
		r.attempted++
		r.failures = append(r.failures, checkMatrix(res)...)
		m.last = res
	}
	return r
}

// checkMatrix compares a matrix with the totals matrix_test.go pins.
func checkMatrix(res *harness.MatrixResult) []string {
	var out []string
	for tool, want := range map[harness.Tool]int{harness.SafeSulong: 76, harness.ASanO0: 60, harness.ASanO3: 56} {
		if got := res.Totals[tool]; got != want {
			out = append(out, fmt.Sprintf("matrix: %v detected %d, want %d", tool, got, want))
		}
	}
	if got := len(res.MissedByBoth()); got != 16 {
		out = append(out, fmt.Sprintf("matrix: missed-by-both %d, want 16", got))
	}
	for _, c := range res.Cases {
		for _, tool := range harness.Tools() {
			if cell := res.Cells[c.Name][tool]; cell.RunError != "" {
				out = append(out, fmt.Sprintf("matrix: %s under %v: %s", c.Name, tool, firstLine(cell.RunError)))
			}
		}
	}
	return out
}

func (m *matrixWorkload) finish(rs []roundResult) ([]metric, []string) {
	var rates []float64
	for _, r := range rs {
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
	}
	passes := requestsMS(rs)
	if m.o.trace {
		m.refs = map[string]harness.Outcome{}
		for _, c := range m.cases {
			for _, tool := range harness.Tools() {
				t := matrixTools[tool]
				cfg := sulong.Config{Engine: t.engine, OptLevel: t.opt, Args: c.Args, MaxSteps: harness.DefaultMaxSteps}
				if c.Stdin != "" {
					cfg.Stdin = strings.NewReader(c.Stdin)
				}
				m.refs[c.Name+"|"+tool.String()] = outcome(sulong.Run(c.Source, cfg))
			}
		}
	}
	return []metric{
		spread("matrix_cells_per_s", "1/s", roleNamed, "higher", rates),
		groupedLatency("matrix_pass_ms_p50", roleNamed, map[string][]float64{"": passes}),
		single("matrix_pass_ms_p90", "ms", roleNamed, "lower", percentile(passes, 0.9), len(passes)),
	}, nil
}

// replay runs the cold pass and then warm passes over every cell at one
// worker through the layer calls, checking each cell against the last
// untraced matrix and against a facade run of the same cell.
func (m *matrixWorkload) replay(st *stack) []string {
	warm := 3
	if m.o.small {
		warm = 1
	}
	var failures []string
	for pass := 0; pass <= warm; pass++ {
		if pass == 1 {
			st.markRounds()
		}
		for _, c := range m.cases {
			for _, tool := range harness.Tools() {
				var d harness.Detection
				var o harness.Outcome
				st.op(func() { d, o = m.replayCell(st, c, tool) })
				key := c.Name + "|" + tool.String()
				want := m.last.Cells[c.Name][tool]
				if d.Status() != want.Status() || d.Report != want.Report {
					failures = append(failures, fmt.Sprintf("replay parity: matrix %s: replayed %s (%s) != untraced %s (%s)",
						key, d.Status(), firstLine(d.Report), want.Status(), firstLine(want.Report)))
				}
				if f := parity("matrix "+key, o, m.refs[key]); f != "" {
					failures = append(failures, f)
				}
			}
		}
	}
	return failures
}

// replayCell is one matrix cell through the layer calls.
func (m *matrixWorkload) replayCell(st *stack, c corpus.Case, tool harness.Tool) (harness.Detection, harness.Outcome) {
	t := matrixTools[tool]
	req := pipeline.Request{Source: c.Source, Flavor: pipeline.FlavorNative, OptLevel: t.opt}
	if tool == harness.SafeSulong {
		req = pipeline.Request{Source: c.Source, Flavor: pipeline.FlavorManaged}
	}
	cres, err := st.compile(req)
	if err != nil {
		return detection(sulong.Result{}, err), outcome(sulong.Result{}, err)
	}
	var res sulong.Result
	if tool == harness.SafeSulong {
		ecfg := core.Config{Args: c.Args, MaxSteps: harness.DefaultMaxSteps}
		if c.Stdin != "" {
			ecfg.Stdin = strings.NewReader(c.Stdin)
		}
		res, err = st.runManaged(cres.Module, ecfg, tiering{}).result()
	} else {
		res, err = st.runNative(cres.Module, t.engine, func(n *nativevm.Config) {
			n.Args = c.Args
			if c.Stdin != "" {
				n.Stdin = strings.NewReader(c.Stdin)
			}
			n.MaxSteps = harness.DefaultMaxSteps
		}).result()
	}
	return detection(res, err), outcome(res, err)
}
