package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	sulong "repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

// Campaign shape. Every request is one campaign.Run of campaignPrograms
// programs on two workers with a fresh journal and minimization off; its
// seed derives from -seed and the request's index. The golden campaign
// checks the whole pipeline's verdicts against testdata.
const (
	campaignPrograms = 50
	goldenSeed       = 2018
	goldenPrograms   = 40
	campaignMaxSteps = 2_000_000 // the campaign's default per-run step budget
	campaignMaxHeap  = 64 << 20  // the campaign's guest heap ceiling
	campaignMaxNth   = 2         // the campaign's default fault-schedule depth
	campaignMutate   = 4         // the campaign's default mutant interval
	// setupIndex starts the seed indices of set-up campaigns, far from the
	// rounds' 0, 1, 2, ...
	setupIndex = 1 << 30
)

// campaignWorkload is the fuzzbench shape: generated programs judged by the
// tier-parity, fault-parity and cross-tool oracles. It uses the same caches
// as the matrix but as write/evict traffic — compile once, about eight
// oracle runs with forced tier-1 and async+OSR compiles, then release — so
// a change that speeds up hits by slowing fills or releases shows here.
type campaignWorkload struct {
	o       options
	runs    int    // campaign.Run calls so far; request k's seed derives from k
	journal string // the first round's first journal, kept for replay parity
	seed0   uint64 // that campaign's seed
	refs    []campaignRef
	// overshoots counts the known tier-1 step-budget defect (see
	// stepLimitOvershoot), which is reported instead of failing the run.
	overshoots int64
}

// campaignRef is one judged program of the kept journal, with the facade's
// tier-0 run of it.
type campaignRef struct {
	idx   int
	rec   journalRecord
	tier0 harness.Outcome
}

// journalRecord holds the fields of a campaign journal seed record the
// replay compares.
type journalRecord struct {
	T   string `json:"t"`
	I   int    `json:"i"`
	C   string `json:"c"`
	K   string `json:"k"`
	Sig string `json:"sig"`
}

func newCampaign(o options) *campaignWorkload { return &campaignWorkload{o: o} }

func (c *campaignWorkload) workers() int { return 2 }

func (c *campaignWorkload) programs() int {
	if c.o.small {
		return 6
	}
	return campaignPrograms
}

// runCampaign runs one campaign in a fresh scratch directory, which it
// removes afterwards unless keep is set.
func (c *campaignWorkload) runCampaign(seed uint64, programs int, keep bool) (*campaign.Result, string, error) {
	dir, err := os.MkdirTemp(c.o.workdir, "campaign-")
	if err != nil {
		return nil, "", err
	}
	journal := filepath.Join(dir, "journal.jsonl")
	res, err := campaign.Run(campaign.Options{
		Seed: seed, Programs: programs, Workers: c.workers(), Journal: journal, MinimizeBudget: -1,
	})
	if !keep {
		os.RemoveAll(dir)
	}
	return res, journal, err
}

// setup is a small campaign in a fresh process state: the first compiles,
// engines and journal of a fuzzing session.
func (c *campaignWorkload) setup() error {
	_, _, err := c.runCampaign(gen.SeedAt(c.o.seed, setupIndex), 8, false)
	return err
}

func (c *campaignWorkload) round(deadline time.Time) roundResult {
	r := roundResult{requests: map[string][]time.Duration{}}
	for time.Now().Before(deadline) {
		k := c.runs
		c.runs++
		seed := gen.SeedAt(c.o.seed, k)
		t0 := time.Now()
		keep := k == 0 && c.o.trace
		res, journal, err := c.runCampaign(seed, c.programs(), keep)
		r.requests[""] = append(r.requests[""], time.Since(t0))
		r.attempted++
		if keep {
			c.journal, c.seed0 = journal, seed
		}
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("campaign %#x: %v", seed, err))
			continue
		}
		r.ops += res.Judged
		r.rejects += res.Rejects
		for _, f := range res.Hard() {
			if stepLimitOvershoot(f) {
				c.overshoots++
				continue
			}
			r.failures = append(r.failures, fmt.Sprintf("campaign %#x: hard finding #%d %s: %s", seed, f.Index, f.Kind, f.Signature))
		}
	}
	return r
}

// stepLimitOvershoot recognizes a known defect: when a program exhausts
// its step budget, tier-0 stops at campaignMaxSteps+1 steps but compiled
// code stops at the end of its basic block, a few steps later, while every
// other observable matches. The campaign reports that as a tier
// divergence. Only that case is excused — tier-0 at exactly the budget's
// end, the tier past it by at most maxOvershootSteps — and counted in
// campaign.step_limit_overshoots; any other hard finding fails the run.
func stepLimitOvershoot(f campaign.Finding) bool {
	m := overshootSig.FindStringSubmatch(f.Signature)
	if f.Kind != campaign.KindTierDivergence || m == nil {
		return false
	}
	tier, tier0 := m[1], m[2]
	if !strings.HasPrefix(tier, "timeout ") || !strings.HasPrefix(tier0, "timeout ") {
		return false
	}
	ts, tierRest, ok1 := cutSteps(tier)
	t0s, tier0Rest, ok0 := cutSteps(tier0)
	return ok1 && ok0 && tierRest == tier0Rest &&
		t0s == campaignMaxSteps+1 && ts > t0s && ts-t0s <= maxOvershootSteps
}

// maxOvershootSteps bounds how far past the budget compiled code may stop:
// the observed overshoot is 14 steps, one basic block.
const maxOvershootSteps = 64

// cutSteps returns the steps= field of an outcome signature and the
// signature without it.
func cutSteps(sig string) (steps int64, rest string, ok bool) {
	loc := stepsField.FindStringSubmatchIndex(sig)
	if loc == nil {
		return 0, "", false
	}
	steps, err := strconv.ParseInt(sig[loc[2]:loc[3]], 10, 64)
	return steps, sig[:loc[0]] + sig[loc[1]:], err == nil
}

var (
	overshootSig = regexp.MustCompile(`^[a-z0-9+-]+ vs tier-0: \{(.*)\} != \{(.*)\}$`)
	stepsField   = regexp.MustCompile(` steps=(\d+)`)
)

// finish runs the golden campaign and, for a traced run, loads the kept
// journal the replay checks against.
func (c *campaignWorkload) finish(rs []roundResult) ([]metric, []string) {
	var failures []string
	res, _, err := c.runCampaign(goldenSeed, goldenPrograms, false)
	golden, _ := testdata.ReadFile("testdata/campaign_summary.txt")
	switch {
	case err != nil:
		failures = append(failures, fmt.Sprintf("golden campaign: %v", err))
	case res.Summary() != string(golden):
		failures = append(failures, fmt.Sprintf("golden campaign: summary differs from testdata/campaign_summary.txt:\n%s", res.Summary()))
	case len(res.Hard()) != 0:
		failures = append(failures, "golden campaign: hard findings")
	}
	if c.o.trace {
		refs, err := c.loadRefs()
		if err != nil {
			failures = append(failures, err.Error())
		}
		c.refs = refs
	}
	var rates []float64
	for _, r := range rs {
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
	}
	return []metric{
		spread("campaign_programs_per_s", "1/s", roleNamed, "higher", rates),
		single("campaign.step_limit_overshoots", "count", roleNamed, "lower", float64(c.overshoots), c.runs),
		groupedLatency("campaign_run_ms_p50", roleNamed, map[string][]float64{"": requestsMS(rs)}),
	}, failures
}

// loadRefs reads the kept journal's seed records and runs each program's
// tier-0 oracle through the facade.
func (c *campaignWorkload) loadRefs() ([]campaignRef, error) {
	f, err := os.Open(c.journal)
	if err != nil {
		return nil, fmt.Errorf("campaign journal: %w", err)
	}
	defer f.Close()
	n := 30
	if c.o.small {
		n = 4
	}
	var refs []campaignRef
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() && len(refs) < n {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("campaign journal: %w", err)
		}
		if rec.T != "seed" {
			continue
		}
		info, _ := campaignProgram(c.seed0, rec.I)
		refs = append(refs, campaignRef{idx: rec.I, rec: rec, tier0: harness.RunSource(info.Source, harness.SafeSulong, campaignBudget())})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign journal: %w", err)
	}
	return refs, os.RemoveAll(filepath.Dir(c.journal))
}

func campaignBudget() harness.CaseBudget {
	return harness.CaseBudget{MaxSteps: campaignMaxSteps, MaxHeapBytes: campaignMaxHeap}
}

// campaignProgram is program idx of the campaign with the given seed, with
// its generator name: every campaignMutate'th program mutates a corpus case.
func campaignProgram(seed uint64, idx int) (gen.Info, string) {
	s := gen.SeedAt(seed, idx)
	if (idx+1)%campaignMutate == 0 {
		cases := corpus.All()
		cs := cases[int(s%uint64(len(cases)))]
		return gen.Mutate(cs.Source, s), "mut:" + cs.Name
	}
	return gen.Generate(s), "gen"
}

// replay judges the kept journal's first programs again through the layer
// calls and checks each verdict against the journal and each tier-0 run
// against the facade.
func (c *campaignWorkload) replay(st *stack) []string {
	st.markRounds()
	var failures []string
	for _, ref := range c.refs {
		var v verdict
		st.op(func() {
			var genName string
			info := st.generate(func() gen.Info {
				info, name := campaignProgram(c.seed0, ref.idx)
				genName = name
				return info
			})
			v = judge(st, info.Source, genName)
		})
		if v.c != ref.rec.C || v.k != ref.rec.K || v.sig != ref.rec.Sig {
			failures = append(failures, fmt.Sprintf("replay parity: campaign %#x program %d: replayed %s %s %q != journal %s %s %q",
				c.seed0, ref.idx, v.c, v.k, v.sig, ref.rec.C, ref.rec.K, ref.rec.Sig))
		}
		if v.c != "reject" {
			if f := parity(fmt.Sprintf("campaign %#x program %d tier-0", c.seed0, ref.idx), v.tier0, ref.tier0); f != "" {
				failures = append(failures, f)
			}
		}
	}
	return failures
}

// verdict is a judged program's journal class, finding kind and signature,
// plus its tier-0 outcome.
type verdict struct {
	c, k, sig string
	tier0     harness.Outcome
}

// judge is the campaign judge with minimization off, through the layer
// calls: one managed compile shared by the tier-parity oracle (tier-0,
// forced tier-1, async+OSR) and the fault-parity oracle (FailNth 1..2 at
// tier-0 and tier-1), then for grammar-generated programs Safe Sulong
// flags, the cross-tool oracle (ASan, memcheck and the bare machine at
// -O0), then release. It is a copy of campaign.judge in
// internal/campaign/judge.go, which is the reference it must match; replay
// parity compares its verdicts with the campaign's journal.
func judge(st *stack, src, genName string) verdict {
	res, err := st.compile(pipeline.Request{Source: src, Flavor: pipeline.FlavorManaged})
	if err != nil {
		// st.compile turns a pipeline panic into a core.InternalError, as
		// sulong.CompileFor does, which harness.CompileOutcome classifies
		// "panic"; any other compile error is a reject.
		if _, ok := err.(*core.InternalError); ok {
			return verdict{c: "find", k: campaign.KindEnginePanic, sig: "tier-0: " + firstLine(err.Error())}
		}
		return verdict{c: "reject"}
	}
	mod := res.Module
	defer st.release(mod)
	tiers := []struct {
		name string
		t    tiering
	}{
		{"tier-0", tiering{}},
		{"tier-1", tiering{jit: true, codeCache: true, threshold: 1}},
		{"async+osr", tiering{jit: true, codeCache: true, threshold: 1, async: true, osrThreshold: 1}},
	}
	run := func(t tiering, plan fault.Plan) harness.Outcome {
		st.acc.oracleRuns++
		ecfg := core.Config{MaxSteps: campaignMaxSteps, MaxHeapBytes: campaignMaxHeap, FaultPlan: plan}
		return outcome(st.runManaged(mod, ecfg, t).result())
	}
	outs := make([]harness.Outcome, len(tiers))
	for i, t := range tiers {
		o := run(t.t, fault.Plan{})
		switch o.Class {
		case "deadline", "error":
			return verdict{c: "quarantine", tier0: outs[0]}
		case "panic":
			return verdict{c: "find", k: campaign.KindEnginePanic, sig: t.name + ": " + o.Report, tier0: outs[0]}
		}
		outs[i] = o
		if i > 0 && o.Signature() != outs[0].Signature() {
			sig := fmt.Sprintf("%s vs tier-0: {%s} != {%s}", t.name, o.Signature(), outs[0].Signature())
			return verdict{c: "find", k: campaign.KindTierDivergence, sig: sig, tier0: outs[0]}
		}
	}
	o0 := outs[0]
	v := verdict{c: "ok", tier0: o0}
	if o0.HeapAllocs > 0 {
		for nth := int64(1); nth <= campaignMaxNth; nth++ {
			plan := fault.Plan{FailNth: nth}
			f0, f1 := run(tiers[0].t, plan), run(tiers[1].t, plan)
			for _, p := range []struct {
				name string
				o    harness.Outcome
			}{{"tier-0", f0}, {"tier-1", f1}} {
				switch p.o.Class {
				case "deadline", "error":
					return verdict{c: "quarantine", tier0: o0}
				case "panic":
					return verdict{c: "find", k: campaign.KindFaultPanic, sig: fmt.Sprintf("failnth=%d %s: %s", nth, p.name, p.o.Report), tier0: o0}
				}
			}
			if f0.Signature() != f1.Signature() {
				sig := fmt.Sprintf("failnth=%d: tier-1 {%s} != tier-0 {%s}", nth, f1.Signature(), f0.Signature())
				return verdict{c: "find", k: campaign.KindFaultDivergence, sig: sig, tier0: o0}
			}
		}
	}
	if genName == "gen" && o0.Detected() && blind(st, src) {
		v.c, v.k = "find", campaign.KindToolBlindSpot
		v.sig = fmt.Sprintf("SafeSulong: %s (%s); ASan, Valgrind, Native at -O0: silent", o0.Kind, o0.Report)
	}
	return v
}

// blind is the cross-tool oracle: every simulated native tool at -O0 runs
// the program clean.
func blind(st *stack, src string) bool {
	res, err := st.compile(pipeline.Request{Source: src, Flavor: pipeline.FlavorNative})
	if err != nil {
		return false
	}
	mod := res.Module
	defer st.release(mod)
	for _, tool := range []sulong.Engine{sulong.EngineASan, sulong.EngineMemcheck, sulong.EngineNative} {
		st.acc.oracleRuns++
		o := outcome(st.runNative(mod, tool, func(n *nativevm.Config) {
			n.MaxSteps, n.MaxHeapBytes = campaignMaxSteps, campaignMaxHeap
		}).result())
		if o.Class != "clean" {
			return false
		}
	}
	return true
}
