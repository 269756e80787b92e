package campaign

// The judge runs one program through the campaign's three oracles, cheapest
// and most fundamental first:
//
//  1. Tier parity — the same program under tier-0 interpretation, forced
//     tier-1 compilation (threshold 1), and async tiering with forced OSR
//     (harness.Tiers, which FaultSweep shares) must produce byte-identical
//     observables (Outcome.Signature): classification, report,
//     stdout, exit code, and the exact instruction count (the step-refund
//     ledger makes Steps tier-invariant by construction). Any difference is
//     a wrong-code or accounting bug in a tier.
//  2. Fault-schedule parity — with FailNth = 1..MaxNth injected allocation
//     failures (counted on guest heap traffic, which is tier-portable), the
//     tiers must still agree. This is where error paths live, and error
//     paths are where the paper found its native-tool blind spots.
//  3. Cross-tool blind spots — a grammar-generated program the managed
//     engine flags as buggy while simulated ASan, Valgrind, and the bare
//     native machine all stay silent is a corpus-growth candidate (mutants
//     of corpus cases are excluded: their blind spots are already
//     cataloged by the detection matrix).
//
// Every oracle compares only deterministic observables. A wall-clock
// deadline or infrastructure error quarantines the seed — recording a
// non-reproducible verdict would poison the journal's determinism.

import (
	"fmt"
	"runtime"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/harness"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// baseBudget is the tier-0 judgment budget: deterministic step bound, a
// guest heap ceiling so a mutant cannot balloon the host, and the
// campaign's context for cooperative cancellation.
func (c *campaign) baseBudget() harness.CaseBudget {
	return harness.CaseBudget{
		MaxSteps:     c.opts.MaxSteps,
		Timeout:      c.opts.Timeout,
		MaxHeapBytes: 64 << 20,
		Ctx:          c.opts.Ctx,
	}
}

// judge classifies one program. The returned record is a pure function of
// (idx, seed, info, options): it never depends on wall-clock time, worker
// identity, or scheduling.
func (c *campaign) judge(idx int, seed uint64, info gen.Info, genName string) seedRecord {
	rec := seedRecord{T: "seed", I: idx, S: seed, Gen: genName, Bug: info.Bug}
	src := info.Source
	base := c.baseBudget()

	// One compiled artifact serves every managed oracle below: the three
	// tier-parity runs and the 2×MaxNth fault-parity runs all share
	// SafeSulong's pipeline flavor, so the front end runs once per program
	// instead of once per oracle run. Compile-stage failures classify
	// exactly as they did when tier-0's run compiled first.
	mod, bad := harness.CompileOutcome(src, harness.SafeSulong, base)
	if bad != nil {
		switch bad.Class {
		case "compile-error":
			// The front end refuses the program identically in every tier.
			// Grammar debt, not a finding.
			rec.C, rec.R = "reject", bad.Report
			return rec
		case "panic":
			return c.finish(rec, KindEnginePanic, "tier-0: "+bad.Report, src, func(s string) bool {
				return harness.RunSource(s, harness.SafeSulong, base).Class == "panic"
			})
		default: // "error" and anything else non-deterministic
			rec.C, rec.R = "quarantine", "tier-0: "+bad.Report
			return rec
		}
	}
	// Compile once, run many, then release: after the verdict below, this
	// generated program never runs again, so retire its artifacts from the
	// process-wide caches instead of letting dead modules ride the LRU and
	// engine pool. Deferred so every early return (quarantine, divergence,
	// finding) releases too, after any minimization has finished.
	defer harness.ReleaseModule(mod)

	// Oracle 1: tier parity.
	tiers := harness.Tiers()
	outs := make([]harness.Outcome, len(tiers))
	for i, t := range tiers {
		b := base
		b.Tier = t
		o := harness.RunModule(mod, harness.SafeSulong, b)
		switch o.Class {
		case "deadline", "error":
			rec.C, rec.R = "quarantine", t.String()+": "+o.Report
			return rec
		case "panic":
			return c.finish(rec, KindEnginePanic, t.String()+": "+o.Report, src, func(s string) bool {
				return harness.RunSource(s, harness.SafeSulong, b).Class == "panic"
			})
		}
		outs[i] = o
		if i > 0 && o.Signature() != outs[0].Signature() {
			sig := fmt.Sprintf("%s vs tier-0: {%s} != {%s}", t, o.Signature(), outs[0].Signature())
			return c.finish(rec, KindTierDivergence, sig, src, func(s string) bool {
				a := harness.RunSource(s, harness.SafeSulong, base)
				z := harness.RunSource(s, harness.SafeSulong, b)
				return judgeable(a) && judgeable(z) && a.Signature() != z.Signature()
			})
		}
	}
	o0 := outs[0]

	// Oracle 2: fault-schedule parity, tier-0 vs forced tier-1, for every
	// schedule that can actually fire (the program allocates).
	if c.opts.MaxNth > 0 && o0.HeapAllocs > 0 {
		for nth := int64(1); nth <= c.opts.MaxNth; nth++ {
			var fo [2]harness.Outcome
			var fb [2]harness.CaseBudget
			for i, t := range tiers[:2] {
				fb[i] = base
				fb[i].Tier = t
				fb[i].FaultPlan = fault.Plan{FailNth: nth}
				fo[i] = harness.RunModule(mod, harness.SafeSulong, fb[i])
				switch fo[i].Class {
				case "deadline", "error":
					rec.C, rec.R = "quarantine", fmt.Sprintf("failnth=%d %s: %s", nth, t, fo[i].Report)
					return rec
				case "panic":
					b := fb[i]
					sig := fmt.Sprintf("failnth=%d %s: %s", nth, t, fo[i].Report)
					return c.finish(rec, KindFaultPanic, sig, src, func(s string) bool {
						return harness.RunSource(s, harness.SafeSulong, b).Class == "panic"
					})
				}
			}
			if fo[0].Signature() != fo[1].Signature() {
				f0b, f1b := fb[0], fb[1]
				sig := fmt.Sprintf("failnth=%d: tier-1 {%s} != tier-0 {%s}", nth, fo[1].Signature(), fo[0].Signature())
				return c.finish(rec, KindFaultDivergence, sig, src, func(s string) bool {
					a := harness.RunSource(s, harness.SafeSulong, f0b)
					z := harness.RunSource(s, harness.SafeSulong, f1b)
					return judgeable(a) && judgeable(z) && a.Signature() != z.Signature()
				})
			}
		}
	}

	// Oracle 3: cross-tool blind spots, grammar-generated programs only.
	if genName == "gen" && o0.Detected() {
		if c.blind(src) {
			kind0 := o0.Kind
			sig := fmt.Sprintf("SafeSulong: %s (%s); ASan, Valgrind, Native at -O0: silent", o0.Kind, o0.Report)
			return c.finish(rec, KindToolBlindSpot, sig, src, func(s string) bool {
				a := harness.RunSource(s, harness.SafeSulong, c.baseBudget())
				return a.Detected() && a.Kind == kind0 && c.blind(s)
			})
		}
	}

	rec.C = "ok"
	return rec
}

// blind reports whether every simulated native tool misses the program's
// bug without even crashing. Timeouts and errors count as "not blind" —
// the oracle only claims a blind spot it can fully demonstrate. The three
// -O0 native tools share one compiled artifact (same pipeline flavor and
// opt level); a compile failure counts as "not blind".
func (c *campaign) blind(src string) bool {
	b := c.baseBudget()
	mod, bad := harness.CompileOutcome(src, harness.ASanO0, b)
	if bad != nil {
		return false
	}
	defer harness.ReleaseModule(mod)
	for _, tool := range []harness.Tool{harness.ASanO0, harness.ValgrindO0, harness.NativeO0} {
		o := harness.RunModule(mod, tool, b)
		if o.Class != "clean" {
			return false
		}
	}
	return true
}

// judgeable reports whether an outcome is a deterministic verdict the
// minimizer may compare (wall-clock expiries and harness errors are not).
func judgeable(o harness.Outcome) bool {
	return o.Class != "deadline" && o.Class != "error"
}

// finish completes a finding record: classify, then minimize against the
// originating oracle within the campaign's budget.
func (c *campaign) finish(rec seedRecord, kind, sig, src string, check func(string) bool) seedRecord {
	rec.C, rec.K, rec.Sig, rec.Src = "find", kind, sig, src
	if c.opts.MinimizeBudget > 0 {
		rec.Min, rec.MinOK = minimize(src, check, c.opts.MinimizeBudget)
	}
	return rec
}
