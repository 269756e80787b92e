// Command bugbench reproduces the paper's §4.1 evaluation: it runs the
// 68-bug corpus under Safe Sulong, ASan (-O0/-O3), Valgrind (-O0/-O3), and
// the bare native machine, then prints Tables 1 and 2, the tool comparison,
// and the list of bugs only Safe Sulong finds.
//
// The corpus×tool matrix fans out across a worker pool (one worker per CPU
// by default); every translation unit is compiled once through the staged
// pipeline's content-addressed module cache and shared by all workers.
// Results are deterministic: any -parallel value produces byte-identical
// output.
//
// Usage:
//
//	bugbench                 # full detection matrix
//	bugbench -parallel 1     # force the serial driver
//	bugbench -timeout 5s     # per-cell wall-clock deadline
//	bugbench -maxsteps N     # per-cell step budget (deterministic)
//	bugbench -maxheap N      # per-cell guest heap budget in bytes
//	bugbench -failnth N      # fail the N-th guest heap allocation
//	bugbench -failprob P -faultseed S  # seeded random allocation failures
//	bugbench -retries N      # retry cells that die with internal errors
//	bugbench -jit -jitthreshold 1 -jitasync -osrthreshold 1
//	                         # force tiered SafeSulong cells (tier-parity check)
//	bugbench -faultsweep     # FailNth=1..k sweep asserting engine survival and
//	                         # three-tier SafeSulong parity, under the budget flags
//	bugbench -json out.json  # also emit a machine-readable report
//	bugbench -casestudies    # only the Figs. 10-14 case studies
//	bugbench -case NAME      # one corpus case, all tools, with reports
//	bugbench -list           # corpus inventory with ground truth
//
// A case that exhausts its step budget renders as a "timeout" cell, one
// whose stack or globals exhaust -maxheap as an "oom" cell, and one whose
// every retry dies with an internal engine error as a "quarantined" cell;
// the rest of the matrix completes normally in each instance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/pipeline"
)

// matrixSchemaVersion identifies the -json report shape. Bump it whenever a
// field is added, removed, or changes meaning, so downstream consumers can
// reject reports they do not understand. Version 2 added categories.
const matrixSchemaVersion = 2

// matrixReport is the machine-readable form of a bugbench run.
type matrixReport struct {
	SchemaVersion int            `json:"schemaVersion"`
	Cases         int            `json:"cases"`
	Workers       int            `json:"workers"`
	WallClockMs   float64        `json:"wallClockMs"`
	Totals        map[string]int `json:"totals"`
	// Categories counts the bugs Safe Sulong detected per ground-truth
	// category (Table 1 plus the beyond-the-paper type-confusion row).
	// Maps marshal key-sorted, so the report is byte-identical at any
	// -parallel worker count.
	Categories  map[string]int      `json:"categories"`
	MissedBoth  []string            `json:"foundOnlyBySafeSulong"`
	Timeouts    []string            `json:"timeouts,omitempty"`
	OOMs        []string            `json:"ooms,omitempty"`
	Quarantined []string            `json:"quarantined,omitempty"`
	FaultPlan   string              `json:"faultPlan,omitempty"`
	Cache       pipeline.CacheStats `json:"cache"`
	// Diagnostics carries every cell's structured report (kind, message,
	// tool/tier provenance, access/alloc/free backtraces) in deterministic
	// (case, tool) order — byte-identical at any -parallel worker count.
	Diagnostics []harness.CellDiagnostic `json:"diagnostics"`
}

func main() {
	caseStudies := flag.Bool("casestudies", false, "run only the paper's case studies (Figs. 10-14)")
	oneCase := flag.String("case", "", "run a single corpus case by name")
	list := flag.Bool("list", false, "list corpus cases with ground truth")
	parallel := flag.Int("parallel", 0, "matrix worker count (0 = one per CPU, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock deadline (0 = none)")
	maxSteps := flag.Int64("maxsteps", 0, "per-cell step budget (0 = harness default, <0 = engine default)")
	maxHeap := flag.Int64("maxheap", 0, "per-cell guest heap budget in bytes (0 = none)")
	maxAlloc := flag.Int64("maxalloc", 0, "per-cell single-allocation cap in bytes (0 = engine default)")
	failNth := flag.Int64("failnth", 0, "fail the N-th guest heap allocation in every cell (0 = off)")
	failProb := flag.Float64("failprob", 0, "fail each guest heap allocation with this probability (0 = off)")
	faultSeed := flag.Int64("faultseed", 0, "PRNG seed for -failprob (deterministic per cell)")
	retries := flag.Int("retries", 0, "retry cells that die with internal engine errors this many times")
	useJIT := flag.Bool("jit", false, "run SafeSulong cells with the tier-1 compiler enabled")
	jitThreshold := flag.Int64("jitthreshold", 0, "call count that triggers tier-up (0 = engine default, implies -jit)")
	jitAsync := flag.Bool("jitasync", false, "background tier-up for SafeSulong cells (implies -jit)")
	osrThreshold := flag.Int64("osrthreshold", 0, "back-edge count that triggers on-stack replacement (0 = OSR off, implies -jit)")
	faultSweep := flag.Bool("faultsweep", false, "run the FailNth=1..k allocation-failure sweep instead of the matrix")
	sweepMax := flag.Int("sweepmax", 3, "with -faultsweep, sweep FailNth from 1 to this value")
	jsonOut := flag.String("json", "", "write a machine-readable report to this file")
	flag.Parse()

	plan := fault.Plan{Seed: *faultSeed, FailNth: *failNth, FailProb: *failProb}
	jit := *useJIT || *jitThreshold > 0 || *jitAsync || *osrThreshold > 0
	budget := harness.CaseBudget{
		MaxSteps:      *maxSteps,
		Timeout:       *timeout,
		MaxHeapBytes:  *maxHeap,
		MaxAllocBytes: *maxAlloc,
		FaultPlan:     plan,
		MaxRetries:    *retries,
		JIT:           jit,
		JITThreshold:  *jitThreshold,
		JITAsync:      *jitAsync,
		OSRThreshold:  *osrThreshold,
	}

	switch {
	case *list:
		for _, c := range corpus.All() {
			extra := ""
			if c.ASanBlindSpot {
				extra = "  [missed by ASan+Valgrind]"
			}
			if c.OptimizedAwayAtO3 {
				extra += "  [deleted at -O3]"
			}
			fmt.Printf("%-28s %-16s %-5s %-9s %-9s%s\n",
				c.Name, c.Category, c.Access, c.Direction, c.Mem, extra)
		}
	case *faultSweep:
		res := harness.FaultSweep(harness.SweepOptions{MaxNth: *sweepMax, Workers: *parallel, Budget: budget})
		fmt.Print(res.Render())
		if *jsonOut != "" {
			writeJSON(*jsonOut, res)
		}
		if !res.OK() {
			os.Exit(1)
		}
	case *caseStudies:
		fmt.Print(harness.CaseStudiesWith(budget))
	case *oneCase != "":
		c, ok := corpus.Get(*oneCase)
		if !ok {
			fmt.Fprintf(os.Stderr, "bugbench: no case %q (try -list)\n", *oneCase)
			os.Exit(2)
		}
		fmt.Printf("case %s (%s, %s %s, %s memory)\n\n%s\n\n",
			c.Name, c.Category, c.Access, c.Direction, c.Mem, c.Source)
		for _, tool := range harness.Tools() {
			cell := harness.RunCaseWith(c, tool, budget)
			if cell.Diag != nil {
				// Render the full diagnostic: message plus the access /
				// allocation-site / free-site backtraces (ASan-style).
				fmt.Printf("  %-14s %-9s %s\n", tool, cell.Status(),
					indentFollowing(cell.Diag.Render(), "  "))
			} else {
				fmt.Printf("  %-14s %-9s %s\n", tool, cell.Status(), cell.Report)
			}
		}
	default:
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		start := time.Now()
		m := harness.RunDetectionMatrixWith(harness.MatrixOptions{Workers: workers, Budget: budget})
		elapsed := time.Since(start)
		fmt.Print(m.Render())
		stats := sulong.CacheStats()
		fmt.Printf("\nmatrix wall clock %v (workers=%d), module cache %d hits / %d misses (%.0f%% hit rate)\n",
			elapsed.Round(time.Millisecond), workers, stats.Hits, stats.Misses, 100*stats.HitRate)
		if *jsonOut != "" {
			rep := matrixReport{
				SchemaVersion: matrixSchemaVersion,
				Cases:         len(m.Cases),
				Workers:       workers,
				WallClockMs:   float64(elapsed.Microseconds()) / 1000,
				Totals:        map[string]int{},
				Categories:    map[string]int{},
				MissedBoth:    m.MissedByBoth(),
				Timeouts:      m.Timeouts(),
				OOMs:          m.OOMs(),
				Quarantined:   m.Quarantined,
				Cache:         stats,
				Diagnostics:   m.Diagnostics(),
			}
			if plan.Enabled() {
				rep.FaultPlan = plan.String()
			}
			for _, tool := range harness.Tools() {
				rep.Totals[tool.String()] = m.Totals[tool]
			}
			for cat, n := range m.Table1() {
				rep.Categories[cat.String()] = n
			}
			writeJSON(*jsonOut, rep)
		}
	}
}

// indentFollowing indents every line after the first by extra spaces, so a
// multi-line backtrace stays aligned under its table row.
func indentFollowing(s, extra string) string {
	return strings.ReplaceAll(s, "\n", "\n                           "+extra)
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bugbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bugbench:", err)
		os.Exit(1)
	}
}
