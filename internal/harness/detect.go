// Package harness drives the paper's experiments: the §4.1 detection matrix
// over the bug corpus (Tables 1–2, the tool comparison, the five case
// studies) and the §4.2–4.3 performance measurements (start-up, warm-up,
// peak). cmd/bugbench, cmd/perfbench, and the repository's bench_test.go
// are thin wrappers around this package.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/diag"
	"repro/internal/fault"
)

// Tool identifies one column of the detection matrix.
type Tool int

const (
	SafeSulong Tool = iota
	ASanO0
	ASanO3
	ValgrindO0
	ValgrindO3
	NativeO0
	toolCount
)

var toolNames = [...]string{
	SafeSulong: "SafeSulong",
	ASanO0:     "ASan -O0",
	ASanO3:     "ASan -O3",
	ValgrindO0: "Valgrind -O0",
	ValgrindO3: "Valgrind -O3",
	NativeO0:   "Native -O0",
}

func (t Tool) String() string {
	if t < 0 || int(t) >= len(toolNames) {
		return fmt.Sprintf("Tool(%d)", int(t))
	}
	return toolNames[t]
}

// Tools lists the matrix columns in display order.
func Tools() []Tool {
	return []Tool{SafeSulong, ASanO0, ASanO3, ValgrindO0, ValgrindO3, NativeO0}
}

func (t Tool) config() sulong.Config {
	switch t {
	case SafeSulong:
		return sulong.Config{Engine: sulong.EngineSafeSulong}
	case ASanO0:
		return sulong.Config{Engine: sulong.EngineASan, OptLevel: 0}
	case ASanO3:
		return sulong.Config{Engine: sulong.EngineASan, OptLevel: 3}
	case ValgrindO0:
		return sulong.Config{Engine: sulong.EngineMemcheck, OptLevel: 0}
	case ValgrindO3:
		return sulong.Config{Engine: sulong.EngineMemcheck, OptLevel: 3}
	case NativeO0:
		return sulong.Config{Engine: sulong.EngineNative, OptLevel: 0}
	}
	return sulong.Config{}
}

// Detection is one cell of the matrix, derived from the run's Outcome.
type Detection struct {
	Detected bool
	Report   string // the tool's message, when one was produced
	Crashed  bool   // the program trapped (SIGSEGV-style)
	// Timeout marks a case that did not terminate within its budget: an
	// Outcome of class "timeout" (step limit, deterministic) or "deadline"
	// (wall clock). Distinct from RunError so the tables do not render a
	// non-terminating program the same as an infrastructure failure.
	Timeout bool
	// OOM marks hard guest-memory exhaustion (class "oom"), deterministic
	// for a given program and budget. Heap exhaustion never lands here:
	// guest malloc returns NULL and the program keeps running.
	OOM      bool
	RunError string // infrastructure failure (should be empty)
	// Quarantined marks a cell whose run died with an internal engine
	// error. The matrix completes without it instead of aborting;
	// MatrixResult.Quarantined lists the coordinates.
	Quarantined bool
	// Diag is the structured diagnostic behind Report when the tool produced
	// one: kind, tool/tier provenance, and the access / allocation-site /
	// free-site backtraces. Deterministic at any matrix worker count (cells
	// are index-addressed, and each cell's run is self-contained).
	Diag *diag.Diagnostic
}

// Status renders the cell's classification for tables and CLIs.
func (d Detection) Status() string {
	switch {
	case d.Detected:
		return "DETECTED"
	case d.Timeout:
		return "timeout"
	case d.OOM:
		return "oom"
	case d.Crashed:
		return "crashed"
	case d.Quarantined:
		return "quarantined"
	case d.RunError != "":
		return "error"
	}
	return "missed"
}

// detection derives the matrix cell from an Outcome. A crash that trapped
// on the zero page counts as detected: a NULL dereference is observed by
// every tool and the bare machine alike, which the paper counts as "could
// also have been found without a bug-finding tool". runCase adds the
// quarantine.
func (o Outcome) detection() Detection {
	switch o.Class {
	case "detected":
		d := Detection{Detected: true, Report: o.Report}
		if len(o.Diagnostics) > 0 {
			d.Diag = o.Diagnostics[0]
		}
		return d
	case "crashed":
		return Detection{Detected: o.zeroPage, Crashed: true, Report: o.Report}
	case "timeout", "deadline":
		return Detection{Timeout: true, Report: o.Report}
	case "oom":
		return Detection{OOM: true, Report: o.Report}
	case "clean":
		return Detection{}
	}
	return Detection{RunError: o.Report} // "panic", "error", "compile-error"
}

// MatrixResult is the full detection matrix.
type MatrixResult struct {
	Cases  []corpus.Case
	Cells  map[string]map[Tool]Detection // case name -> tool -> cell
	Totals map[Tool]int
	// Quarantined lists cells whose run died with a contained engine
	// panic, as "case / tool" strings in deterministic (case, tool)
	// order. The matrix completes without them instead of aborting.
	Quarantined []string
}

// DefaultMaxSteps is the per-case step budget RunCase applies when the
// caller does not choose one. It is generous enough for every corpus case
// yet bounds a non-terminating program deterministically.
const DefaultMaxSteps = 50_000_000

// CaseBudget bounds one cell's execution. The zero value means "harness
// defaults": DefaultMaxSteps and no wall-clock deadline.
type CaseBudget struct {
	// MaxSteps is the step budget. 0 selects DefaultMaxSteps; a negative
	// value defers to the engine's own default (effectively unbounded).
	MaxSteps int64
	// Timeout is a per-case wall-clock deadline (0 = none). Unlike step
	// limits it is not deterministic, but the resulting cell renders
	// identically (the report quotes the configured budget, not elapsed
	// time), so matrix output stays byte-stable.
	Timeout time.Duration
	// MaxHeapBytes bounds cumulative live guest memory per cell (0 =
	// unlimited). Soft (heap) exhaustion makes guest malloc return NULL;
	// hard (stack/global) exhaustion classifies the cell "oom" —
	// deterministic, so cells render identically at any worker count.
	MaxHeapBytes int64
	// MaxAllocBytes bounds a single guest heap request (0 = engine default).
	MaxAllocBytes int64
	// FaultPlan injects deterministic guest allocation failures into the
	// cell's run (the fault sweep sets FailNth).
	FaultPlan fault.Plan
	// Tier runs SafeSulong cells in that managed tier configuration (the
	// zero value is tier-0, the interpreter alone). Other tools ignore it.
	Tier Tier
	// Ctx, when non-nil, cancels the cell cooperatively: the run's governor
	// is stopped at the next basic-block boundary. The campaign driver
	// threads its supervision context through here. nil =
	// context.Background().
	Ctx context.Context
}

// ctx returns the cell's caller context, defaulting to Background.
func (b CaseBudget) ctx() context.Context {
	if b.Ctx != nil {
		return b.Ctx
	}
	return context.Background()
}

func (b CaseBudget) maxSteps() int64 {
	switch {
	case b.MaxSteps > 0:
		return b.MaxSteps
	case b.MaxSteps < 0:
		return 0 // engine default
	}
	return DefaultMaxSteps
}

// config assembles the facade configuration for one cell: the tool's engine
// selection plus the case's inputs and the budget's bounds. Shared by the
// matrix driver and the campaign's oracle adapters.
func (b CaseBudget) config(c corpus.Case, tool Tool) sulong.Config {
	cfg := tool.config()
	cfg.Args = c.Args
	if c.Stdin != "" {
		cfg.Stdin = strings.NewReader(c.Stdin)
	}
	cfg.MaxSteps = b.maxSteps()
	cfg.Timeout = b.Timeout
	cfg.MaxHeapBytes = b.MaxHeapBytes
	cfg.MaxAllocBytes = b.MaxAllocBytes
	cfg.FaultPlan = b.FaultPlan
	if tool == SafeSulong {
		b.Tier.Configure(&cfg)
	}
	return cfg
}

// Tier is one managed tier configuration. The tier-parity table, the
// campaign judge and FaultSweep run a program under every tier and require
// equal Outcomes; Tiers is their only tier list, and Configure their only
// mapping from a tier to configuration fields.
type Tier int

const (
	Tier0        Tier = iota // interpreter only
	Tier1                    // synchronous compile on the first call
	TierAsyncOSR             // background compile on the first call, OSR at the first back edge
)

var tierNames = [...]string{Tier0: "tier-0", Tier1: "tier-1", TierAsyncOSR: "async+osr"}

func (t Tier) String() string {
	if t < 0 || int(t) >= len(tierNames) {
		return fmt.Sprintf("Tier(%d)", int(t))
	}
	return tierNames[t]
}

// Configure sets cfg's tiering fields for a Safe Sulong run in tier t.
func (t Tier) Configure(cfg *sulong.Config) {
	if t != Tier0 {
		cfg.JIT, cfg.JITThreshold = true, 1
		if t == TierAsyncOSR {
			cfg.JITAsync, cfg.OSRThreshold = true, 1
		}
	}
}

// Tiers lists every tier, tier-0 (the reference) first.
func Tiers() []Tier { return []Tier{Tier0, Tier1, TierAsyncOSR} }

// RunCase executes one corpus case under one tool with the default budget
// and classifies the result.
func RunCase(c corpus.Case, tool Tool) Detection {
	return RunCaseWith(c, tool, CaseBudget{})
}

// RunCaseWith executes one corpus case under one tool within the given
// budget and classifies the result. It compiles through the process-wide
// module cache and keeps the module there, since the matrix runs every
// case under several tools, and never panics: compiler, engine and harness
// panics are all contained. A cell whose run dies with a contained engine
// panic (class "panic") is marked Quarantined: every engine is
// deterministic, so running it again would panic again.
func RunCaseWith(c corpus.Case, tool Tool, b CaseBudget) Detection {
	_, d := runCase(c, tool, b)
	return d
}

// runCase is RunCaseWith returning the run's Outcome beside the cell
// derived from it.
func runCase(c corpus.Case, tool Tool, b CaseBudget) (o Outcome, d Detection) {
	if mod, bad := compile(c.Source, tool); bad != nil {
		o = *bad
	} else {
		o = runModule(mod, c, tool, b)
	}
	d = o.detection()
	if o.Class == "panic" {
		d.Quarantined = true
		d.RunError = "quarantined: " + o.Report
	}
	return o, d
}

// RunDetectionMatrix runs every corpus case under every tool, fanned out
// across GOMAXPROCS workers (see RunDetectionMatrixWith for control over
// the pool size and the determinism guarantee).
func RunDetectionMatrix() *MatrixResult {
	return RunDetectionMatrixWith(MatrixOptions{})
}

// Table1 aggregates detected bugs by paper category (Safe Sulong's column,
// which detects the full corpus).
func (m *MatrixResult) Table1() map[corpus.Category]int {
	out := map[corpus.Category]int{}
	for _, c := range m.Cases {
		if m.Cells[c.Name][SafeSulong].Detected {
			out[c.Category]++
		}
	}
	return out
}

// Table2 aggregates the out-of-bounds cases by read/write, direction, and
// memory kind.
func (m *MatrixResult) Table2() (rw map[corpus.Access]int, dir map[corpus.Direction]int, mem map[corpus.Mem]int) {
	rw = map[corpus.Access]int{}
	dir = map[corpus.Direction]int{}
	mem = map[corpus.Mem]int{}
	for _, c := range m.Cases {
		if c.Category != corpus.BufferOverflow || !m.Cells[c.Name][SafeSulong].Detected {
			continue
		}
		rw[c.Access]++
		dir[c.Direction]++
		mem[c.Mem]++
	}
	return
}

// Timeouts lists every cell classified Timeout, as "case/tool" strings in
// deterministic (case, tool) order. Empty under the default budgets: the
// corpus terminates.
func (m *MatrixResult) Timeouts() []string {
	return m.cellsWhere(func(d Detection) bool { return d.Timeout })
}

// OOMs lists every cell classified OOM (hard guest-memory exhaustion), as
// "case/tool" strings in deterministic (case, tool) order. Empty unless a
// heap budget was configured.
func (m *MatrixResult) OOMs() []string {
	return m.cellsWhere(func(d Detection) bool { return d.OOM })
}

// cellsWhere lists the cells keep selects as "case / tool" strings in
// deterministic (case, tool) order.
func (m *MatrixResult) cellsWhere(keep func(Detection) bool) []string {
	var out []string
	for _, c := range m.Cases {
		for _, tool := range Tools() {
			if keep(m.Cells[c.Name][tool]) {
				out = append(out, fmt.Sprintf("%s / %s", c.Name, tool))
			}
		}
	}
	return out
}

// CellDiagnostic pairs one matrix cell's structured diagnostic with its
// coordinates, for machine-readable reports.
type CellDiagnostic struct {
	Case string           `json:"case"`
	Tool string           `json:"tool"`
	Diag *diag.Diagnostic `json:"diagnostic"`
}

// Diagnostics lists every cell's structured diagnostic in deterministic
// (case, tool) order — the same at any worker count, since cells are
// index-addressed and each cell's run is self-contained.
func (m *MatrixResult) Diagnostics() []CellDiagnostic {
	var out []CellDiagnostic
	for _, c := range m.Cases {
		for _, tool := range Tools() {
			if d := m.Cells[c.Name][tool].Diag; d != nil {
				out = append(out, CellDiagnostic{Case: c.Name, Tool: tool.String(), Diag: d})
			}
		}
	}
	return out
}

// MissedByBoth lists bugs found by Safe Sulong but by neither ASan nor
// Valgrind at either optimization level — the paper's "8 errors".
func (m *MatrixResult) MissedByBoth() []string {
	var out []string
	for _, c := range m.Cases {
		row := m.Cells[c.Name]
		if row[SafeSulong].Detected &&
			!row[ASanO0].Detected && !row[ASanO3].Detected &&
			!row[ValgrindO0].Detected && !row[ValgrindO3].Detected {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Render prints the matrix in the shape of the paper's §4.1 discussion.
func (m *MatrixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection matrix over %d corpus bugs\n\n", len(m.Cases))

	t1 := m.Table1()
	b.WriteString("Table 1. Error distribution of the detected bugs\n")
	fmt.Fprintf(&b, "  Buffer overflows    %2d\n", t1[corpus.BufferOverflow])
	fmt.Fprintf(&b, "  NULL dereferences   %2d\n", t1[corpus.NullDereference])
	fmt.Fprintf(&b, "  Use-after-free      %2d\n", t1[corpus.UseAfterFree])
	fmt.Fprintf(&b, "  Varargs             %2d\n", t1[corpus.Varargs])
	fmt.Fprintf(&b, "  Type confusion      %2d  (beyond the paper)\n\n", t1[corpus.TypeConfusion])

	rw, dir, mem := m.Table2()
	b.WriteString("Table 2. Distribution of out-of-bounds accesses\n")
	fmt.Fprintf(&b, "  Read %2d / Write %2d   Underflow %2d / Overflow %2d\n",
		rw[corpus.ReadAccess], rw[corpus.WriteAccess], dir[corpus.Underflow], dir[corpus.Overflow])
	fmt.Fprintf(&b, "  Stack %2d  Heap %2d  Global %2d  Main args %2d\n\n",
		mem[corpus.Stack], mem[corpus.Heap], mem[corpus.Global], mem[corpus.MainArgs])

	b.WriteString("Tool comparison (bugs detected)\n")
	for _, tool := range Tools() {
		fmt.Fprintf(&b, "  %-14s %2d / %d\n", tool, m.Totals[tool], len(m.Cases))
	}
	if t := m.Timeouts(); len(t) > 0 {
		b.WriteString("\nCells that exhausted their budget (timeout)\n")
		for _, cell := range t {
			fmt.Fprintf(&b, "  - %s\n", cell)
		}
	}
	if o := m.OOMs(); len(o) > 0 {
		b.WriteString("\nCells that exhausted the guest heap budget (oom)\n")
		for _, cell := range o {
			fmt.Fprintf(&b, "  - %s\n", cell)
		}
	}
	if len(m.Quarantined) > 0 {
		b.WriteString("\nQuarantined cells (persistent internal errors)\n")
		for _, cell := range m.Quarantined {
			fmt.Fprintf(&b, "  - %s\n", cell)
		}
	}
	b.WriteString("\nFound by Safe Sulong, missed by ASan and Valgrind at -O0 and -O3:\n")
	for _, name := range m.MissedByBoth() {
		fmt.Fprintf(&b, "  - %s\n", name)
	}
	return b.String()
}

// CaseStudies runs only the five paper figures and reports per-tool results.
func CaseStudies() string {
	return CaseStudiesWith(CaseBudget{})
}

// CaseStudiesWith is CaseStudies under a caller-chosen per-cell budget.
func CaseStudiesWith(budget CaseBudget) string {
	var b strings.Builder
	for _, c := range corpus.All() {
		if c.CaseStudy == "" {
			continue
		}
		fmt.Fprintf(&b, "%s (%s)\n", c.CaseStudy, c.Name)
		for _, tool := range Tools() {
			cell := RunCaseWith(c, tool, budget)
			fmt.Fprintf(&b, "  %-14s %-9s %s\n", tool, cell.Status(), firstLine(cell.Report))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
