package harness

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/fault"
)

// SweepOptions configures a fault-injection sweep: every case is run under
// FailNth = 1..MaxNth for every tool, asserting that injected allocation
// failures never panic an engine and that the managed engine's Outcome
// signature is identical in every tier (see Tiers).
type SweepOptions struct {
	// MaxNth sweeps FailNth from 1 to this value (default 3).
	MaxNth int
	// Cases restricts the corpus (nil = corpus.All()).
	Cases []corpus.Case
	// Tools restricts the columns (nil = Tools()).
	Tools []Tool
	// Workers bounds the goroutine pool (<= 0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Budget bounds every run (see CaseBudget). The sweep sets its
	// FaultPlan and Tier; the rest applies as given.
	Budget CaseBudget
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
	// Kind is "panic" (a run under injection ended in an engine panic or
	// another infrastructure error) or "tier-mismatch" (a SafeSulong tier's
	// Outcome signature differed from tier-0's).
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
// classification, never an engine death). For SafeSulong it runs the same
// plan in every tier (see Tiers) and asserts each tier's Outcome signature,
// class, report, stdout, exit, Steps and fault counters, equals tier-0's —
// the paper's "identical semantics across tiers" claim extended to injected
// allocation failures. As in the campaign judge, a pair where either side
// hit a wall-clock deadline is not compared: elapsed time is not a verdict.
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
	cols := maxNth * nt
	grid := make([]sweepCell, len(cases)*cols)
	tick := serialProgress(opts.Progress, len(grid))
	forEachCell(len(cases), cols, opts.Workers, func(ci, col int) {
		defer tick()
		grid[ci*cols+col] = runSweepCell(cases[ci], tools[col%nt], col/nt+1, opts.Budget)
	})

	res := &SweepResult{Cases: len(cases), MaxNth: maxNth}
	for i := range grid {
		res.Runs += grid[i].runs
		res.Violations = append(res.Violations, grid[i].violations...)
	}
	return res
}

// sweepCell is one (case, FailNth, tool) cell's runs and violations.
type sweepCell struct {
	violations []SweepViolation
	runs       int
}

// runSweepCell runs the case under FailNth = nth: once, or for SafeSulong
// once per tier, comparing each tier's Outcome signature with tier-0's.
func runSweepCell(c corpus.Case, tool Tool, nth int, b CaseBudget) (out sweepCell) {
	b.FaultPlan = fault.Plan{FailNth: int64(nth)}
	tiers := Tiers()
	if tool != SafeSulong {
		tiers = tiers[:1]
	}
	violation := func(kind, detail string) {
		out.violations = append(out.violations, SweepViolation{
			Case: c.Name, Tool: tool.String(), Nth: nth, Kind: kind, Detail: detail,
		})
	}
	var o0 Outcome
	for k, t := range tiers {
		b.Tier = t
		o, cell := runCase(c, tool, b)
		out.runs++
		if cell.RunError != "" {
			if k > 0 {
				cell.RunError = t.String() + ": " + cell.RunError
			}
			violation("panic", cell.RunError)
			return out
		}
		if k == 0 {
			o0 = o
			continue
		}
		if o0.Class == "deadline" || o.Class == "deadline" {
			continue
		}
		if o.Signature() != o0.Signature() {
			violation("tier-mismatch", fmt.Sprintf("%s vs tier-0: {%s} != {%s}", t, o.Signature(), o0.Signature()))
		}
	}
	return out
}
