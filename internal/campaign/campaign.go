// Package campaign is the crash-resilient differential fuzzing driver: it
// shards a splitmix64 seed space across supervised workers, judges every
// generated program with three oracles (tier parity, fault-schedule parity,
// cross-tool blind spots), journals progress to an append-only checkpoint
// file, and auto-minimizes every confirmed finding with delta debugging
// re-verified against the originating oracle.
//
// The paper's campaigns ran for months against real compilers; the lesson
// this package encodes is that the harness, not the engine, decides whether
// a long campaign survives. Three failure families are handled without
// stopping the run: a seed whose judgment panics or hangs is quarantined
// and its worker respawned; a campaign process that dies (kill -9 included)
// resumes from the journal byte-identically; and a finding too large to
// diagnose is shrunk to a corpus-shaped case before a human sees it.
//
// Determinism is the load-bearing property. Program number i is always
// gen.SeedAt(campaign, i) regardless of worker count or interruption;
// records are journaled strictly in index order through a reorder buffer;
// and every oracle compares only deterministic observables (step-budget
// timeouts, never wall-clock ones — a wall-clock expiry quarantines the
// seed instead of judging it).
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/harness"
)

// Finding kinds, ordered by the oracle that produces them. The first four
// are "hard": they indicate an engine defect and fail the fuzzcheck gate.
// A blind spot is a capability result (the managed engine sees a bug the
// simulated native tools miss) — the corpus-growth channel, not a defect.
const (
	KindEnginePanic     = "engine-panic"     // contained compiler/engine panic
	KindTierDivergence  = "tier-divergence"  // tier-0 vs tier-1 vs async+OSR disagree
	KindFaultPanic      = "fault-panic"      // panic only under an injected-OOM schedule
	KindFaultDivergence = "fault-divergence" // tiers disagree under an injected-OOM schedule
	KindToolBlindSpot   = "tool-blind-spot"  // SafeSulong detects; ASan/Valgrind/Native silent
)

// Options configures one campaign. The zero value is not runnable: Seed
// identifies the campaign and Programs sizes it.
type Options struct {
	// Seed is the campaign's root seed. Program i's generator seed is
	// gen.SeedAt(Seed, i) — the whole campaign is reproducible from this
	// one number.
	Seed uint64
	// Programs is the number of seeds to judge.
	Programs int
	// Workers sizes the supervised pool (0 = GOMAXPROCS).
	Workers int
	// MaxNth sweeps fault schedules FailNth = 1..MaxNth over every program
	// that allocates (0 selects the default of 2; negative disables the
	// fault oracle).
	MaxNth int64
	// MutateEvery makes every k'th program a mutant of a corpus case
	// instead of a grammar-generated one (0 selects the default of 4;
	// negative disables mutation).
	MutateEvery int
	// MaxSteps bounds each judged run (0 selects the default of 2M steps —
	// generated programs terminate well under that; the bound exists so an
	// accidental non-terminating mutant is classified deterministically).
	MaxSteps int64
	// Timeout is a per-run wall-clock guard (0 = none). It is a liveness
	// backstop only: a run that hits it is quarantined, never judged,
	// because wall-clock outcomes are not reproducible.
	Timeout time.Duration
	// Journal, when non-empty, checkpoints every judged seed to this
	// append-only file; Resume continues an interrupted campaign from it.
	Journal string
	Resume  bool
	// OutDir, when non-empty, receives one corpus-shaped intake file per
	// finding (see corpus.IntakeCase).
	OutDir string
	// MinimizeBudget caps the oracle re-runs the per-finding minimizer may
	// spend (0 selects the default of 300; negative disables minimization).
	MinimizeBudget int
	// Progress, when non-nil, is called after each seed is recorded in
	// index order (the same shape harness.SweepOptions.Progress uses).
	// Journal writes are group-committed, so a reported record is durable
	// at the next batch boundary, cancellation, or close. done counts
	// resumed seeds too, so a resumed campaign's bar starts where the
	// interrupted one stopped.
	Progress func(done, total int)
	// Ctx cancels the campaign cooperatively: in-flight runs are stopped at
	// the next block boundary, unjournaled results are discarded, and Run
	// returns ctx's error. The journal stays resumable.
	Ctx context.Context

	// hookJudge replaces the oracle pipeline in tests: supervision and
	// journaling are exercised against scripted verdicts (including ones
	// that panic the worker).
	hookJudge func(idx int, seed uint64, info gen.Info) seedRecord
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	if o.MaxNth == 0 {
		o.MaxNth = 2
	}
	if o.MutateEvery == 0 {
		o.MutateEvery = 4
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 2_000_000
	}
	if o.MinimizeBudget == 0 {
		o.MinimizeBudget = 300
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

func (o Options) meta() metaRecord {
	return metaRecord{
		T: "meta", V: journalVersion,
		Seed: o.Seed, Programs: o.Programs,
		MaxNth: o.MaxNth, MutateEvery: o.MutateEvery, MaxSteps: o.MaxSteps,
		MinimizeBudget: o.MinimizeBudget, TimeoutNS: int64(o.Timeout),
	}
}

// Finding is one confirmed divergence, panic, or blind spot.
type Finding struct {
	Index     int    `json:"index"`
	Seed      uint64 `json:"seed"`
	Kind      string `json:"kind"`
	Signature string `json:"signature"`
	Generator string `json:"generator"` // "gen" or "mut:<corpus case>"
	Bug       string `json:"bug,omitempty"`
	Source    string `json:"source"`
	Minimized string `json:"minimized,omitempty"`
	// MinimizedOK reports that the minimizer re-verified the shrunk program
	// against the originating oracle. False means the finding did not
	// reproduce when re-checked — a flakiness signal worth more than the
	// finding itself.
	MinimizedOK bool `json:"minimizedOk"`
}

// Quarantine is one seed the campaign could not judge: its run hit the
// wall-clock guard, failed with an infrastructure error, or took its worker
// down. The campaign records it and moves on.
type Quarantine struct {
	Index  int    `json:"index"`
	Seed   uint64 `json:"seed"`
	Reason string `json:"reason"`
}

// Result is the campaign's aggregate outcome, assembled in index order and
// therefore identical at any worker count.
type Result struct {
	Programs    int          `json:"programs"`
	Judged      int          `json:"judged"`  // seeds durably recorded this process
	Resumed     int          `json:"resumed"` // seeds replayed from the journal
	OK          int          `json:"ok"`
	Rejects     int          `json:"rejects"` // programs the front end refused
	Findings    []Finding    `json:"findings,omitempty"`
	Quarantined []Quarantine `json:"quarantined,omitempty"`
}

// Hard returns the findings that indicate engine defects (everything except
// tool blind spots). A campaign with hard findings fails the gate.
func (r *Result) Hard() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Kind != KindToolBlindSpot {
			out = append(out, f)
		}
	}
	return out
}

// Summary renders the campaign outcome for CLIs and logs.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d programs judged (%d resumed from journal)\n", r.Resumed+r.Judged, r.Resumed)
	fmt.Fprintf(&b, "  ok %d · rejects %d · quarantined %d · findings %d (%d hard)\n",
		r.OK, r.Rejects, len(r.Quarantined), len(r.Findings), len(r.Hard()))
	for _, f := range r.Findings {
		min := ""
		if f.MinimizedOK {
			min = fmt.Sprintf(" [minimized to %d lines]", strings.Count(f.Minimized, "\n")+1)
		}
		fmt.Fprintf(&b, "  FIND #%d seed=%#x %s%s\n    %s\n", f.Index, f.Seed, f.Kind, min, f.Signature)
	}
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "  quarantined #%d seed=%#x: %s\n", q.Index, q.Seed, firstLine(q.Reason))
	}
	return b.String()
}

// workerDeath is a worker goroutine's exit notice. idx >= 0 means the
// worker died (panicked) while judging that seed; idx < 0 is a clean exit.
type workerDeath struct {
	idx    int
	seed   uint64
	reason string
}

type campaign struct {
	opts Options
}

// Run executes the campaign. It returns a non-nil Result even on error:
// everything durably recorded before the failure is in it.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Programs <= 0 {
		return nil, fmt.Errorf("campaign: Programs must be positive")
	}
	c := &campaign{opts: opts}
	res := &Result{Programs: opts.Programs}

	// Journal setup: create fresh, or load + validate + truncate torn tail.
	var j *journal
	var replay []seedRecord
	if opts.Journal != "" {
		var err error
		if opts.Resume {
			if _, statErr := os.Stat(opts.Journal); statErr == nil {
				j, replay, err = loadJournal(opts.Journal, opts.meta())
			} else {
				j, err = createJournal(opts.Journal, opts.meta())
			}
		} else {
			j, err = createJournal(opts.Journal, opts.meta())
		}
		if err != nil {
			return res, err
		}
		defer j.Close()
	}
	for _, rec := range replay {
		c.apply(res, rec, true)
	}
	start := len(replay)
	if start > opts.Programs {
		return res, fmt.Errorf("campaign: journal has %d records but Programs is %d", start, opts.Programs)
	}
	if opts.Progress != nil && start > 0 {
		opts.Progress(start, opts.Programs)
	}

	// Supervised pool. Workers pull indices, judge them, and report either
	// a record or their own death; the supervisor respawns dead workers,
	// quarantines the seed they were holding, and writes records strictly
	// in index order through a reorder buffer.
	ctx := opts.Ctx
	todo := make(chan int)
	recs := make(chan seedRecord)
	deaths := make(chan workerDeath)
	spawn := func() { go c.worker(todo, recs, deaths) }
	for i := 0; i < opts.Workers; i++ {
		spawn()
	}
	// The feeder hands out indices in windows, each window reordered
	// longest-first by the shared duration model (keyed by generator name —
	// the only cost signal knowable before generating). The reorder buffer
	// restores strict index order for the journal, so the schedule changes
	// only which worker runs what when, never any output byte. Serial
	// campaigns keep the historical sequential feed.
	go func() {
		defer close(todo)
		window := 4 * opts.Workers
		for lo := start; lo < opts.Programs; lo += window {
			hi := lo + window
			if hi > opts.Programs {
				hi = opts.Programs
			}
			order := identityOrder(hi - lo)
			if opts.Workers > 1 {
				order = harness.CostOrder(hi-lo, func(k int) string {
					return "campaign|" + c.genNameAt(lo+k)
				})
			}
			for _, k := range order {
				if ctx.Err() != nil {
					return
				}
				select {
				case todo <- lo + k:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	live := opts.Workers
	buf := map[int]seedRecord{}
	next := start
	need := opts.Programs - start
	var runErr error
	for got := 0; got < need && runErr == nil; {
		select {
		case rec := <-recs:
			buf[rec.I] = rec
			got++
		case d := <-deaths:
			if d.idx >= 0 {
				// The worker died mid-judgment: quarantine the seed it was
				// holding and keep the pool at full strength.
				buf[d.idx] = seedRecord{
					T: "seed", I: d.idx, S: d.seed,
					C: "quarantine", R: "worker death: " + d.reason,
				}
				got++
				spawn()
			} else {
				live--
			}
		case <-ctx.Done():
			runErr = context.Cause(ctx)
		}
		// Flush the reorder buffer: only the contiguous prefix is durable.
		for runErr == nil {
			rec, ok := buf[next]
			if !ok {
				break
			}
			if j != nil {
				if err := j.appendRecord(rec); err != nil {
					runErr = fmt.Errorf("campaign: journal write: %w", err)
					break
				}
			}
			delete(buf, next)
			next++
			c.apply(res, rec, false)
			if opts.Progress != nil {
				opts.Progress(next, opts.Programs)
			}
		}
	}

	// Wind down: the feeder closes todo (ctx or exhaustion), workers finish
	// their in-flight seed and exit. Late results and deaths are discarded
	// without respawning — anything not yet journaled is re-judged
	// identically by a resume.
	for live > 0 {
		select {
		case <-recs:
		case <-deaths:
			live--
		}
	}
	// Group-commit the pending batch before returning — cancellation and
	// exhaustion both land here, so every record the result reports is
	// durable when Run returns (Close would flush too, but its deferred
	// error is unobservable).
	if j != nil {
		if err := j.Flush(); err != nil && runErr == nil {
			runErr = fmt.Errorf("campaign: journal flush: %w", err)
		}
	}
	return res, runErr
}

// identityOrder is the 0..n-1 permutation (the untrained/serial feed order).
func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// apply folds one in-order record into the result. replayed marks records
// read back from the journal on resume.
func (c *campaign) apply(res *Result, rec seedRecord, replayed bool) {
	if replayed {
		res.Resumed++
	} else {
		res.Judged++
	}
	switch rec.C {
	case "ok":
		res.OK++
	case "reject":
		res.Rejects++
	case "quarantine":
		res.Quarantined = append(res.Quarantined, Quarantine{Index: rec.I, Seed: rec.S, Reason: rec.R})
	case "find":
		f := Finding{
			Index: rec.I, Seed: rec.S, Kind: rec.K, Signature: rec.Sig,
			Generator: rec.Gen, Bug: rec.Bug,
			Source: rec.Src, Minimized: rec.Min, MinimizedOK: rec.MinOK,
		}
		res.Findings = append(res.Findings, f)
		if !replayed && c.opts.OutDir != "" {
			c.writeIntake(f)
		}
	}
}

// writeIntake emits the finding as a corpus-shaped intake file. Best-effort:
// the journal is the durable record; the intake file is a convenience.
func (c *campaign) writeIntake(f Finding) {
	src, verified := f.Minimized, f.MinimizedOK
	if src == "" {
		src, verified = f.Source, false
	}
	ic := corpus.IntakeCase{
		Name:      fmt.Sprintf("fuzz-%s-%#x", f.Kind, f.Seed),
		Seed:      f.Seed,
		Generator: f.Generator,
		Class:     f.Kind,
		Signature: f.Signature,
		Bug:       f.Bug,
		Verified:  verified,
		Source:    src,
	}
	data, err := json.MarshalIndent(ic, "", "  ")
	if err != nil {
		return
	}
	_ = os.MkdirAll(c.opts.OutDir, 0o755)
	path := filepath.Join(c.opts.OutDir, fmt.Sprintf("find-%06d-%s.json", f.Index, f.Kind))
	_ = os.WriteFile(path, append(data, '\n'), 0o644)
}

// worker judges indices until todo closes. A panic anywhere in judgment —
// the generator, the oracles, the minimizer — becomes a death notice
// carrying the in-flight seed, so the supervisor can quarantine it and
// respawn; the campaign itself never unwinds.
func (c *campaign) worker(todo <-chan int, recs chan<- seedRecord, deaths chan<- workerDeath) {
	cur, curSeed := -1, uint64(0)
	defer func() {
		if r := recover(); r != nil {
			deaths <- workerDeath{idx: cur, seed: curSeed, reason: fmt.Sprint(r)}
			return
		}
		deaths <- workerDeath{idx: -1}
	}()
	for idx := range todo {
		cur, curSeed = idx, gen.SeedAt(c.opts.Seed, idx)
		recs <- c.runOne(idx, curSeed)
		cur = -1
	}
}

// genNameAt names program idx's generator without generating it: mutants
// are selected by index and corpus slot alone. The feeder uses this as the
// scheduling key — the only cost signal available before a seed runs.
func (c *campaign) genNameAt(idx int) string {
	if c.opts.MutateEvery > 0 && (idx+1)%c.opts.MutateEvery == 0 {
		cases := corpus.All()
		seed := gen.SeedAt(c.opts.Seed, idx)
		return "mut:" + cases[int(seed%uint64(len(cases)))].Name
	}
	return "gen"
}

// runOne generates (or mutates) program idx and judges it, feeding the
// judgment duration back into the shared scheduling model.
func (c *campaign) runOne(idx int, seed uint64) seedRecord {
	var info gen.Info
	genName := c.genNameAt(idx)
	if strings.HasPrefix(genName, "mut:") {
		cases := corpus.All()
		info = gen.Mutate(cases[int(seed%uint64(len(cases)))].Source, seed)
	} else {
		info = gen.Generate(seed)
	}
	if c.opts.hookJudge != nil {
		return c.opts.hookJudge(idx, seed, info)
	}
	start := time.Now()
	rec := c.judge(idx, seed, info, genName)
	harness.ObserveCost("campaign|"+genName, time.Since(start))
	return rec
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
