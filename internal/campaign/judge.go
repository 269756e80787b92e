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
//
// Each oracle is written once, as a probe: one or two runs of a program and
// the test that fires on their Outcomes. The judge applies each probe's test
// to runs of the one compiled program it judges; a fired probe goes with its
// finding, and the minimizer's check is that probe run on each candidate.

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

// probe is one oracle: the budgets of one or two SafeSulong runs of one
// compiled program, and the test that fires on their Outcomes.
type probe struct {
	budgets []harness.CaseBudget
	fires   func(src string, outs []harness.Outcome) bool
}

// newProbe returns the probe of runs under budgets with the test fires.
func newProbe(fires func(string, []harness.Outcome) bool, budgets ...harness.CaseBudget) *probe {
	return &probe{budgets, fires}
}

// panicked fires when the run panicked.
func panicked(_ string, outs []harness.Outcome) bool { return outs[0].Class == "panic" }

// diverged fires when both runs are judgeable and their Signatures differ.
func diverged(_ string, outs []harness.Outcome) bool {
	return judgeable(outs[0]) && judgeable(outs[1]) && outs[0].Signature() != outs[1].Signature()
}

// check runs p on src through the one-shot path, one compile for all of
// its runs, and applies p's test: the minimizer's check.
func (p *probe) check(src string) bool {
	outs := make([]harness.Outcome, len(p.budgets))
	harness.RunOnce(src, harness.SafeSulong, func(run harness.RunFunc) {
		for i, b := range p.budgets {
			outs[i] = run(harness.SafeSulong, b)
		}
	})
	return p.fires(src, outs)
}

// judge classifies one program. The returned record is a pure function of
// (idx, seed, info, options): it never depends on wall-clock time, worker
// identity, or scheduling.
//
// One compile serves every managed run of the oracles: the three
// tier-parity runs and the 2×MaxNth fault-parity runs all share
// SafeSulong's pipeline flavor. The program is released as soon as the
// verdict is in, before a finding is minimized.
func (c *campaign) judge(idx int, seed uint64, info gen.Info, genName string) seedRecord {
	rec := seedRecord{T: "seed", I: idx, S: seed, Gen: genName, Bug: info.Bug}
	var fired *probe
	harness.RunOnce(info.Source, harness.SafeSulong, func(run harness.RunFunc) {
		fired = c.oracles(&rec, info.Source, genName, run)
	})
	if fired != nil && c.opts.MinimizeBudget > 0 {
		rec.Min, rec.MinOK = minimize(rec.Src, fired.check, c.opts.MinimizeBudget)
	}
	return rec
}

// oracles runs the three oracles, in order and with their early exits, on
// the compiled program src through run. It records the verdict in rec and
// returns the probe that fired, or nil.
func (c *campaign) oracles(rec *seedRecord, src, genName string, run harness.RunFunc) *probe {
	base := c.baseBudget()
	// settle runs b and reports whether judgment goes on: a rejected
	// program, an unjudgeable run or a panic ends it.
	var fired *probe
	settle := func(label, panicKind string, b harness.CaseBudget) (harness.Outcome, bool) {
		o := run(harness.SafeSulong, b)
		switch {
		case o.Class == "compile-error":
			// The front end refuses the program identically in every tier.
			// Grammar debt, not a finding.
			rec.C, rec.R = "reject", o.Report
		case !judgeable(o):
			rec.C, rec.R = "quarantine", label+": "+o.Report
		case panicked(src, []harness.Outcome{o}):
			fired = rec.find(panicKind, label+": "+o.Report, src, newProbe(panicked, b))
		default:
			return o, true
		}
		return o, false
	}

	// Oracle 1: tier parity.
	tiers := harness.Tiers()
	var o0 harness.Outcome
	for i, t := range tiers {
		b := base
		b.Tier = t
		o, ok := settle(t.String(), KindEnginePanic, b)
		if !ok {
			return fired
		}
		if i == 0 {
			o0 = o
		} else if diverged(src, []harness.Outcome{o0, o}) {
			sig := fmt.Sprintf("%s vs tier-0: {%s} != {%s}", t, o.Signature(), o0.Signature())
			return rec.find(KindTierDivergence, sig, src, newProbe(diverged, base, b))
		}
	}

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
				var ok bool
				if fo[i], ok = settle(fmt.Sprintf("failnth=%d %s", nth, t), KindFaultPanic, fb[i]); !ok {
					return fired
				}
			}
			if diverged(src, fo[:]) {
				sig := fmt.Sprintf("failnth=%d: tier-1 {%s} != tier-0 {%s}", nth, fo[1].Signature(), fo[0].Signature())
				return rec.find(KindFaultDivergence, sig, src, newProbe(diverged, fb[0], fb[1]))
			}
		}
	}

	// Oracle 3: cross-tool blind spots, grammar-generated programs only.
	if genName == "gen" {
		kind0 := o0.Kind
		p := newProbe(func(s string, outs []harness.Outcome) bool {
			return outs[0].Detected() && outs[0].Kind == kind0 && c.blind(s)
		}, base)
		if p.fires(src, []harness.Outcome{o0}) {
			sig := fmt.Sprintf("SafeSulong: %s (%s); ASan, Valgrind, Native at -O0: silent", o0.Kind, o0.Report)
			return rec.find(KindToolBlindSpot, sig, src, p)
		}
	}

	rec.C = "ok"
	return nil
}

// find records a finding of kind with signature sig on src, fired by p,
// and returns p.
func (rec *seedRecord) find(kind, sig, src string, p *probe) *probe {
	rec.C, rec.K, rec.Sig, rec.Src = "find", kind, sig, src
	return p
}

// blind reports whether every simulated native tool misses the program's
// bug without even crashing. Timeouts and errors count as "not blind" —
// the oracle only claims a blind spot it can fully demonstrate. The three
// -O0 native tools share one compiled program (same pipeline flavor and
// opt level); a compile failure counts as "not blind".
func (c *campaign) blind(src string) bool {
	b := c.baseBudget()
	silent := true
	harness.RunOnce(src, harness.ASanO0, func(run harness.RunFunc) {
		for _, tool := range []harness.Tool{harness.ASanO0, harness.ValgrindO0, harness.NativeO0} {
			if run(tool, b).Class != "clean" {
				silent = false
				return
			}
		}
	})
	return silent
}

// judgeable reports whether an outcome is a deterministic verdict the
// minimizer may compare (wall-clock expiries and harness errors are not).
func judgeable(o harness.Outcome) bool {
	return o.Class != "deadline" && o.Class != "error"
}
