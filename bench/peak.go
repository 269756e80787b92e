package main

import (
	"bytes"
	"embed"
	"fmt"
	"io"
	"math/rand"
	"time"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

//go:embed testdata
var testdata embed.FS

// peakSizes fixes each benchmark's argument so that a Safe Sulong iteration
// takes roughly 5–50 ms on a 2-core x86-64 machine, which keeps a full
// sweep of the 9 programs under the five tools near one second.
// fannkuchredux runs at 6: at 7 a Safe Sulong iteration takes over 100 ms,
// and at 8 the simulated native machine crashes (see README.md).
var peakSizes = []struct{ name, arg string }{
	{"binarytrees", "6"},
	{"fannkuchredux", "6"},
	{"fasta", "500"},
	{"fastaredux", "2000"},
	{"mandelbrot", "20"},
	{"meteor", "6"},
	{"nbody", "1000"},
	{"spectralnorm", "30"},
	{"whetstone", "6"},
}

// peakConfigs are Fig. 16's configurations with the metric names they
// report under. The Safe Sulong configuration runs the tier-1/tier-2
// compiler with synchronous tier-up, as the harness's Fig. 16 runner does.
var peakConfigs = []struct {
	cfg    harness.PerfConfig
	name   string
	engine sulong.Engine
	opt    int
}{
	{harness.SafeSulongPerf, "safe_sulong", sulong.EngineSafeSulong, 0},
	{harness.ClangO0, "clang_o0", sulong.EngineNative, 0},
	{harness.ClangO3, "clang_o3", sulong.EngineNative, 3},
	{harness.ASanPerf, "asan", sulong.EngineASan, 0},
	{harness.ValgrindPerf, "valgrind", sulong.EngineMemcheck, 0},
}

// maxWarmupIters bounds one warm-up trial.
const maxWarmupIters = 30

// peakWorkload is Fig. 15/16: each benchmark program iterated in-process
// under Safe Sulong and the four native-model tools, single-threaded, after
// warm-up. Tier-2 compiled code and the native interpreter dominate; the
// pipeline and the caches sit idle after set-up. Each round also starts
// one fresh engine per program and times its warm-up (Fig. 15).
type peakWorkload struct {
	o       options
	progs   []peakProg
	runners []harness.Runner // program-major: progs[i] under peakConfigs[j] at i*len(peakConfigs)+j
	nround  int
	iters   [][][]float64 // [round][pair] iteration ms
	trials  [][]float64   // [round][program] warm-up ms
	refs    []peakRef
}

type peakProg struct {
	bench  benchprog.Benchmark
	arg    string
	golden string
}

// peakRef is the facade's run of a program at its size, under Safe Sulong
// and Clang -O0, for the replay's parity check.
type peakRef struct{ safe, native harness.Outcome }

func newPeak(o options) *peakWorkload {
	p := &peakWorkload{o: o}
	sizes := peakSizes
	if o.small {
		sizes = []struct{ name, arg string }{{"fastaredux", "2000"}, {"mandelbrot", "20"}}
	}
	for _, s := range sizes {
		b, err := benchprog.Get(s.name)
		if err != nil {
			panic(err) // the table above names only bundled programs
		}
		golden, err := testdata.ReadFile("testdata/peak/" + s.name + ".out")
		if err != nil {
			panic(err) // every table entry has a golden file
		}
		p.progs = append(p.progs, peakProg{bench: b, arg: s.arg, golden: string(golden)})
	}
	return p
}

func (p *peakWorkload) workers() int { return 1 }

// setup compiles every program for every tool, builds the in-process
// runners, and runs each Safe Sulong runner twice so its hot functions
// tier up before the rounds.
func (p *peakWorkload) setup() error {
	for _, r := range p.runners {
		r.Close()
	}
	p.runners = p.runners[:0]
	for _, prog := range p.progs {
		for _, c := range peakConfigs {
			r, err := harness.NewRunner(c.cfg, prog.bench.Source, prog.arg)
			if err != nil {
				return fmt.Errorf("%s under %v: %w", prog.bench.Name, c.cfg, err)
			}
			p.runners = append(p.runners, r)
			if c.cfg != harness.SafeSulongPerf {
				continue
			}
			for i := 0; i < 2; i++ {
				if err := r.RunIteration(); err != nil {
					return fmt.Errorf("%s under %v: %w", prog.bench.Name, c.cfg, err)
				}
			}
		}
	}
	return nil
}

// order is the round's seed-chosen order of (program, tool) pairs.
func (p *peakWorkload) order(round int) []int {
	return rand.New(rand.NewSource(int64(p.o.seed)*31 + int64(round))).Perm(len(p.progs) * len(peakConfigs))
}

func (p *peakWorkload) round(deadline time.Time) roundResult {
	r := roundResult{requests: map[string][]time.Duration{}}
	nc := len(peakConfigs)
	samples := make([][]float64, len(p.runners))
	order := p.order(p.nround)
	p.nround++
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		// Allocation is counted over full sweeps only: a partial sweep's mix
		// of programs and tools depends on timing.
		a0, full := allocatedBytes(), true
		for _, i := range order {
			if sweep > 0 && !time.Now().Before(deadline) {
				full = false
				break
			}
			t0 := time.Now()
			err := p.runners[i].RunIteration()
			d := time.Since(t0)
			r.attempted++
			prog, c := p.progs[i/nc], peakConfigs[i%nc]
			if err != nil {
				r.failures = append(r.failures, fmt.Sprintf("peak: %s under %v: %v", prog.bench.Name, c.cfg, err))
				continue
			}
			r.ops++
			samples[i] = append(samples[i], ms(d))
			if c.cfg == harness.SafeSulongPerf {
				r.requests[prog.bench.Name] = append(r.requests[prog.bench.Name], d)
			}
		}
		if full {
			r.alloc += allocatedBytes() - a0
			r.allocOps += len(order)
		}
	}
	var rates []float64
	for _, s := range samples {
		if len(s) > 0 {
			rates = append(rates, 1000/median(s))
		}
	}
	r.rate = geomean(rates)

	trials := make([]float64, len(p.progs))
	for pi, prog := range p.progs {
		r.attempted++
		sum, err := warmupTrial(nil, prog, median(samples[pi*nc]))
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("peak: %s warm-up trial: %v", prog.bench.Name, err))
			continue
		}
		trials[pi] = ms(sum)
	}
	p.iters = append(p.iters, samples)
	p.trials = append(p.trials, trials)
	return r
}

// warmupTrial starts a fresh engine with a fresh tier-1 compiler — no pool,
// no code cache — and sums iteration times up to and including the first
// iteration within 1.1x of peakMS. With a replay stack it goes through the
// stack's layer calls. How many iterations that takes depends on timing, so
// a trial's steps and compiles stay out of the exact counters.
func warmupTrial(st *stack, prog peakProg, peakMS float64) (time.Duration, error) {
	var mod *ir.Module
	var err error
	if st != nil {
		var res *pipeline.Result
		if res, err = st.compile(pipeline.Request{Source: prog.bench.Source, Flavor: pipeline.FlavorManaged}); err == nil {
			mod = res.Module
		}
	} else {
		mod, err = sulong.CompileOnly(prog.bench.Source)
	}
	if err != nil {
		return 0, err
	}
	ecfg := core.Config{Args: []string{prog.arg}, Stdout: io.Discard}
	var eng *core.Engine
	if st != nil {
		st.tier1(&ecfg, tiering{jit: true, threshold: harness.DefaultTier1Threshold})
		eng, err = st.acquire(mod, ecfg, false)
	} else {
		ecfg.Tier1, ecfg.Tier1Threshold = jit.New(), harness.DefaultTier1Threshold
		eng, err = core.NewEngine(mod, ecfg)
	}
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	var sum time.Duration
	for i := 0; i < maxWarmupIters; i++ {
		t0 := time.Now()
		var err error
		if st != nil {
			_, err = st.execute(eng, false)
		} else {
			_, err = eng.Run()
		}
		d := time.Since(t0)
		sum += d
		if err != nil {
			return sum, err
		}
		if ms(d) <= 1.1*peakMS {
			break
		}
	}
	return sum, nil
}

// finish checks each program's Safe Sulong and Clang -O0 output against its
// golden file and reports the Fig. 15/16 numbers.
func (p *peakWorkload) finish(rs []roundResult) ([]metric, []string) {
	var failures []string
	p.refs = make([]peakRef, len(p.progs))
	for i, prog := range p.progs {
		args := []string{prog.arg}
		p.refs[i].safe = outcome(sulong.Run(prog.bench.Source, sulong.Config{Engine: sulong.EngineSafeSulong, JIT: true, Args: args}))
		p.refs[i].native = outcome(sulong.Run(prog.bench.Source, sulong.Config{Engine: sulong.EngineNative, Args: args}))
		for _, o := range []struct {
			tool string
			o    harness.Outcome
		}{{"Safe Sulong", p.refs[i].safe}, {"Clang -O0", p.refs[i].native}} {
			if o.o.Class != "clean" || o.o.Exit != 0 || o.o.Stdout != prog.golden {
				failures = append(failures, fmt.Sprintf("peak: %s %s under %s: %s exit %d, stdout matches golden: %v",
					prog.bench.Name, prog.arg, o.tool, o.o.Class, o.o.Exit, o.o.Stdout == prog.golden))
			}
		}
	}

	nc := len(peakConfigs)
	var out []metric
	for ci, c := range peakConfigs {
		iters := map[string][]float64{}
		for pi, prog := range p.progs {
			for _, round := range p.iters {
				iters[prog.bench.Name] = append(iters[prog.bench.Name], round[pi*nc+ci]...)
			}
		}
		out = append(out, groupedLatency("peak_ms."+c.name, roleNamed, iters))
	}
	trials := map[string][]float64{}
	for pi, prog := range p.progs {
		for _, t := range p.trials {
			trials[prog.bench.Name] = append(trials[prog.bench.Name], t[pi])
		}
	}
	out = append(out, groupedLatency("warmup_ms", roleNamed, trials))
	return out, failures
}

// peakRunner is a replayed runner: a long-lived engine or machine that
// iterates in-process, as harness.Runner does.
type peakRunner struct {
	eng    *core.Engine
	comp   *jit.Compiler
	m      *nativevm.Machine
	engine sulong.Engine
	out    *switchWriter
}

// replay builds every runner through the layer calls (pipeline.Compile,
// EnginePool.Get or nativevm.New), then iterates each pair and runs one
// warm-up trial per program. Each runner's first iteration is captured and
// checked against the facade's run of the same program.
func (p *peakWorkload) replay(st *stack) []string {
	var failures []string
	nc := len(peakConfigs)
	runners := make([]peakRunner, len(p.progs)*nc)
	for pi, prog := range p.progs {
		for ci, c := range peakConfigs {
			r, err := p.replayRunner(st, prog, c.engine, c.opt)
			if err != nil {
				failures = append(failures, fmt.Sprintf("peak replay: %s under %v: %v", prog.bench.Name, c.cfg, err))
				continue
			}
			runners[pi*nc+ci] = r
			var buf bytes.Buffer
			r.out.w = &buf
			var o harness.Outcome
			st.op(func() { o = r.iterate(st) })
			r.out.w = io.Discard
			o.Stdout = buf.String()
			want := p.refs[pi].native
			if c.engine == sulong.EngineSafeSulong {
				want = p.refs[pi].safe
				st.op(func() { r.iterate(st) }) // the set-up's second warm-up iteration
			} else if c.cfg != harness.ClangO0 {
				continue
			}
			if f := parity(fmt.Sprintf("peak %s under %v", prog.bench.Name, c.cfg), o, want); f != "" {
				failures = append(failures, f)
			}
		}
	}
	st.markRounds()
	sweeps := 2
	if p.o.small {
		sweeps = 1
	}
	ss := make([][]float64, len(p.progs))
	for s := 0; s < sweeps; s++ {
		for _, i := range p.order(0) {
			if runners[i].out == nil {
				continue
			}
			var o harness.Outcome
			t0 := time.Now()
			st.op(func() { o = runners[i].iterate(st) })
			if i%nc == 0 {
				ss[i/nc] = append(ss[i/nc], ms(time.Since(t0)))
			}
			if o.Class != "clean" {
				failures = append(failures, fmt.Sprintf("peak replay: %s under %v: %s %s", p.progs[i/nc].bench.Name, peakConfigs[i%nc].cfg, o.Class, o.Report))
			}
		}
	}
	for pi, prog := range p.progs {
		st.op(func() {
			if _, err := warmupTrial(st, prog, median(ss[pi])); err != nil {
				failures = append(failures, fmt.Sprintf("peak replay: %s warm-up trial: %v", prog.bench.Name, err))
			}
		})
	}
	for _, r := range runners {
		if r.eng != nil {
			st.countJIT(r.comp)
			st.pool.Put(r.eng)
		}
	}
	return failures
}

// switchWriter lets a long-lived engine capture one iteration's stdout and
// discard the rest.
type switchWriter struct {
	w io.Writer
}

func (s *switchWriter) Write(p []byte) (int, error) { return s.w.Write(p) }

// replayRunner compiles prog for one tool and builds its runner.
func (p *peakWorkload) replayRunner(st *stack, prog peakProg, engine sulong.Engine, opt int) (peakRunner, error) {
	r := peakRunner{engine: engine, out: &switchWriter{w: io.Discard}}
	args := []string{prog.arg}
	req := pipeline.Request{Source: prog.bench.Source, Flavor: pipeline.FlavorNative, OptLevel: opt}
	if engine == sulong.EngineSafeSulong {
		req = pipeline.Request{Source: prog.bench.Source, Flavor: pipeline.FlavorManaged}
	}
	res, err := st.compile(req)
	if err != nil {
		return r, err
	}
	mod := res.Module
	if engine == sulong.EngineSafeSulong {
		ecfg := core.Config{Args: args, Stdout: r.out}
		r.comp = st.tier1(&ecfg, tiering{jit: true, threshold: harness.DefaultTier1Threshold})
		r.eng, err = st.acquire(mod, ecfg, true)
		return r, err
	}
	r.m, err = st.newMachine(mod, engine, func(n *nativevm.Config) {
		n.Args = args
		n.Stdout = r.out
	})
	return r, err
}

// iterate runs one in-process iteration and classifies it. Steps, heap
// counters and stdout describe this iteration only when it is the runner's
// first.
func (r peakRunner) iterate(st *stack) harness.Outcome {
	if r.eng != nil {
		before := r.eng.Stats().Steps
		code, err := st.execute(r.eng, false)
		stats := r.eng.Stats()
		st.acc.steps += stats.Steps - before
		stats.Steps -= before
		return outcome(managedRun{code: code, err: err, stats: stats, tier: "tier-1"}.result())
	}
	return outcome(st.runMachine(r.m, r.engine).result())
}
