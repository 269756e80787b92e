package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/fault"
)

// SweepOptions configures a fault-injection sweep: every case is run under
// FailNth = 1..MaxNth for every tool, asserting that injected allocation
// failures never panic an engine and that the managed engine classifies
// each injected outcome identically in tier 0 and tier 1.
type SweepOptions struct {
	// MaxNth sweeps FailNth from 1 to this value (default 3).
	MaxNth int
	// Cases restricts the corpus (nil = corpus.All()).
	Cases []corpus.Case
	// Tools restricts the columns (nil = Tools()).
	Tools []Tool
	// Workers bounds the goroutine pool (<= 0 = GOMAXPROCS, 1 = serial).
	Workers int
	// MaxSteps is the per-run step budget (0 = DefaultMaxSteps).
	MaxSteps int64
	// MaxHeapBytes additionally bounds guest memory per run (0 = none).
	MaxHeapBytes int64
	// Progress, when non-nil, is called after every completed (case, nth,
	// tool) cell with the running count. Calls are serialized, so the
	// callback needs no locking of its own. The campaign driver reports its
	// per-seed progress through the same signature, so both surfaces share
	// one mechanism (and one renderer).
	Progress func(done, total int)
}

// SweepViolation is one assertion failure found by the sweep.
type SweepViolation struct {
	Case string `json:"case"`
	Tool string `json:"tool"`
	Nth  int    `json:"failNth"`
	// Kind is "panic" (an engine died with an internal error under
	// injection) or "tier-mismatch" (tier-0 and tier-1 SafeSulong disagreed
	// on the injected outcome).
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// SweepResult is the aggregate outcome of a fault sweep.
type SweepResult struct {
	Runs       int              `json:"runs"`
	Cases      int              `json:"cases"`
	MaxNth     int              `json:"maxNth"`
	Violations []SweepViolation `json:"violations"`
}

// OK reports whether the sweep completed without violations.
func (r *SweepResult) OK() bool { return len(r.Violations) == 0 }

// Render summarizes the sweep for CLIs.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: %d cases x FailNth 1..%d (%d runs)\n",
		r.Cases, r.MaxNth, r.Runs)
	if r.OK() {
		b.WriteString("  no engine panics, no tier mismatches\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %d violation(s)\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  - %s / %s / failnth=%d: %s: %s\n",
			v.Case, v.Tool, v.Nth, v.Kind, firstLine(v.Detail))
	}
	return b.String()
}

// FaultSweep runs the deterministic allocation-failure sweep. For every
// (case, nth, tool) triple it runs the case under fault.Plan{FailNth: nth}
// and asserts the engine survives (no contained panic — a guest that
// mishandles a NULL malloc must produce a *report* or a crash
// classification, never an engine death). For SafeSulong it additionally
// runs the same plan with the tier-1 compiler forced hot (JITThreshold 1)
// and asserts both tiers classify the injected outcome identically — the
// paper's "identical semantics across tiers" claim extended to injected
// allocation failures.
//
// Work is fanned out cell-by-cell onto a bounded pool; results land in an
// index-addressed grid, so the assembled violations list is deterministic
// at any worker count.
func FaultSweep(opts SweepOptions) *SweepResult {
	cases := opts.Cases
	if cases == nil {
		cases = corpus.All()
	}
	tools := opts.Tools
	if tools == nil {
		tools = Tools()
	}
	maxNth := opts.MaxNth
	if maxNth <= 0 {
		maxNth = 3
	}
	nt := len(tools)
	total := len(cases) * maxNth * nt

	type cellOut struct {
		violations []SweepViolation
		runs       int
	}
	grid := make([]cellOut, total)

	var progressMu sync.Mutex
	var done int
	report := func() {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		opts.Progress(done, total)
		progressMu.Unlock()
	}

	// Longest-first claim order from the shared duration model. Every nth of
	// one (case, tool) pair shares a key — injection changes where a run
	// stops, not its scale — so matrix runs train the sweep's schedule too.
	order := costs.order(total, func(i int) string {
		return cases[i/(maxNth*nt)].Name + "|" + tools[i%(maxNth*nt)%nt].String()
	})
	ForEachOrdered(total, opts.Workers, order, func(i int) {
		defer report()
		c := cases[i/(maxNth*nt)]
		rem := i % (maxNth * nt)
		nth := rem/nt + 1
		tool := tools[rem%nt]

		budget := CaseBudget{
			MaxSteps:     opts.MaxSteps,
			MaxHeapBytes: opts.MaxHeapBytes,
			FaultPlan:    fault.Plan{FailNth: int64(nth)},
		}
		out := &grid[i]
		start := time.Now()
		defer func() { costs.observe(c.Name+"|"+tool.String(), time.Since(start)) }()
		cell := RunCaseWith(c, tool, budget)
		out.runs++
		if cell.RunError != "" {
			out.violations = append(out.violations, SweepViolation{
				Case: c.Name, Tool: tool.String(), Nth: nth,
				Kind: "panic", Detail: cell.RunError,
			})
			return
		}
		if tool != SafeSulong {
			return
		}
		// Tier parity: the same plan with the compiler forced hot must
		// classify identically and produce the identical report.
		jb := budget
		jb.JIT = true
		jb.JITThreshold = 1
		jcell := RunCaseWith(c, tool, jb)
		out.runs++
		if jcell.RunError != "" {
			out.violations = append(out.violations, SweepViolation{
				Case: c.Name, Tool: tool.String(), Nth: nth,
				Kind: "panic", Detail: "tier-1: " + jcell.RunError,
			})
			return
		}
		if cell.Status() != jcell.Status() || cell.Report != jcell.Report {
			out.violations = append(out.violations, SweepViolation{
				Case: c.Name, Tool: tool.String(), Nth: nth,
				Kind: "tier-mismatch",
				Detail: fmt.Sprintf("tier-0 %s %q vs tier-1 %s %q",
					cell.Status(), firstLine(cell.Report), jcell.Status(), firstLine(jcell.Report)),
			})
		}
	})

	res := &SweepResult{Cases: len(cases), MaxNth: maxNth}
	for i := range grid {
		res.Runs += grid[i].runs
		res.Violations = append(res.Violations, grid[i].violations...)
	}
	return res
}
