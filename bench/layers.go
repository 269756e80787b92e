package main

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/nativemem"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

// stack is a replay's private copy of the process-wide reuse layers — the
// module cache, the engine pool and the executable-code cache the sulong
// facade owns — plus the accounting the per-layer metrics come from. The
// replay calls each layer's public entry point itself (pipeline.Compile,
// EnginePool.Get or NewEngine, Engine.Run; NativeConfig, nativevm.New,
// Machine.Run), so every layer boundary can carry a span. A fresh stack per
// replay makes the untraced and traced replays do identical work.
type stack struct {
	tr     *tracer
	cache  *pipeline.Cache
	pool   *core.EnginePool
	code   *jit.CodeCache
	acc    accounting
	rounds bool // the replay has left its set-up phase
	// frontends records the (flavor, source) front ends the replay's cache
	// holds, and modFrontend which front end each compiled module came from,
	// so a native compile that reuses a cached front end is charged only
	// for the stages it ran: pipeline.Result.Stages repeats the front end's
	// stages on such a compile.
	frontends   map[string]bool
	modFrontend map[*ir.Module]string
}

func newStack(tr *tracer) *stack {
	return &stack{
		tr:    tr,
		cache: pipeline.NewCache(),
		pool:  core.NewEnginePool(0),
		code:  jit.NewCodeCache(0),
		acc:   accounting{stageTotal: map[string]time.Duration{}, stageCount: map[string]int{}, nativeRun: map[string][]float64{}},

		frontends:   map[string]bool{},
		modFrontend: map[*ir.Module]string{},
	}
}

// accounting accumulates what the replay measured at each layer boundary.
type accounting struct {
	stageTotal map[string]time.Duration
	stageCount map[string]int
	lookupUS   []float64 // pipeline.Compile time outside its stages
	modInstrs  int64     // instructions in freshly compiled managed modules

	acquireUS, newUS, resetUS []float64 // engine acquire: pool Get, cold, reset
	runMS                     []float64 // managed Engine.Run (Close included)
	steps                     int64
	compiles, bails, inlined  int64
	instrs                    int64
	osrEntries, deopts        int64

	jitMu   sync.Mutex // compile workers report from their own goroutines
	jitBusy time.Duration

	nativeNewUS []float64
	nativeRun   map[string][]float64 // tool span name -> run ms
	nativeSteps int64

	oracleRuns int64     // campaign oracle runs (managed and native)
	opMS       []float64 // replayed operations of the round phase
	genUS      []float64
	releaseUS  []float64
}

// markRounds ends the replay's set-up phase.
func (s *stack) markRounds() {
	s.rounds = true
	s.tr.markRounds()
}

// op runs one replayed operation under a top-level span. Round-phase
// operations feed harness.op_ms_*.
func (s *stack) op(fn func()) {
	id := s.tr.beginOp("op")
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.tr.end(id)
	if s.rounds {
		s.acc.opMS = append(s.acc.opMS, ms(d))
	}
}

// check runs one of the replay's correctness checks under a span charged
// to the harness; it is not an operation.
func (s *stack) check(fn func()) {
	id := s.tr.begin("check")
	fn()
	s.tr.end(id)
}

// generate produces one program's source under a span.
func (s *stack) generate(fn func() gen.Info) gen.Info {
	id := s.tr.begin("gen")
	t0 := time.Now()
	info := fn()
	s.acc.genUS = append(s.acc.genUS, us(time.Since(t0)))
	s.tr.end(id)
	return info
}

// compile resolves req through the replay's module cache.
func (s *stack) compile(req pipeline.Request) (res *pipeline.Result, err error) {
	id := s.tr.begin("pipeline.compile")
	t0 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, &core.InternalError{Panic: r, Stack: string(debug.Stack())}
			}
		}()
		res, err = s.cache.Compile(req)
	}()
	d := time.Since(t0)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	stages := res.Stages
	if !res.CacheHit {
		fe := fmt.Sprintf("%v\x00%s", req.Flavor, req.Source)
		if s.frontends[fe] {
			for i, st := range stages {
				if st.Stage == pipeline.StageNativeOpt {
					stages = stages[i:]
					break
				}
			}
		}
		s.frontends[fe] = true
		s.modFrontend[res.Module] = fe
		if req.Flavor == pipeline.FlavorManaged {
			s.acc.modInstrs += instrCount(res.Module)
		}
	}
	var staged time.Duration
	for _, st := range stages {
		staged += st.Duration
		s.acc.stageTotal[st.Stage] += st.Duration
		s.acc.stageCount[st.Stage]++
	}
	s.tr.stages(id, stages)
	s.acc.lookupUS = append(s.acc.lookupUS, us(d-staged))
	return res, nil
}

func instrCount(m *ir.Module) int64 {
	var n int64
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}

// release retires mod from the replay's reuse layers, the way
// sulong.ReleaseModule retires it from the facade's.
func (s *stack) release(mod *ir.Module) {
	id := s.tr.begin("release")
	t0 := time.Now()
	s.cache.Release(mod)
	s.code.ReleaseModule(mod)
	s.pool.Release(mod)
	delete(s.frontends, s.modFrontend[mod])
	delete(s.modFrontend, mod)
	s.acc.releaseUS = append(s.acc.releaseUS, us(time.Since(t0)))
	s.tr.end(id)
}

// tiering selects the tier-1 compiler setup of a managed run, mirroring
// sulong.Config's JIT fields.
type tiering struct {
	jit          bool
	codeCache    bool // share compiled code through the replay's code cache
	threshold    int64
	async        bool
	osrThreshold int64
}

// managedRun is what one managed run produced.
type managedRun struct {
	code  int
	err   error
	out   string
	stats core.Stats
	tier  string
}

// acquire gets an engine for mod: from the replay's pool when pooled (the
// facade's default), cold otherwise.
func (s *stack) acquire(mod *ir.Module, ecfg core.Config, pooled bool) (*core.Engine, error) {
	id := s.tr.begin("core.acquire")
	t0 := time.Now()
	if !pooled {
		eng, err := core.NewEngine(mod, ecfg)
		d := time.Since(t0)
		s.acc.newUS = append(s.acc.newUS, us(d))
		s.tr.endAs(id, "core.new")
		return eng, err
	}
	hits := s.pool.Stats().Hits
	eng, err := s.pool.Get(mod, ecfg)
	d := time.Since(t0)
	s.acc.acquireUS = append(s.acc.acquireUS, us(d))
	if s.pool.Stats().Hits > hits {
		s.acc.resetUS = append(s.acc.resetUS, us(d))
		s.tr.endAs(id, "core.reset")
	} else {
		s.acc.newUS = append(s.acc.newUS, us(d))
		s.tr.endAs(id, "core.new")
	}
	return eng, err
}

// runManaged runs mod once on the managed engine the way sulong.RunModule
// does: a pooled engine, a fresh tier-1 compiler per run, Close before the
// counters are read, and the engine parked afterwards.
func (s *stack) runManaged(mod *ir.Module, ecfg core.Config, t tiering) (r managedRun) {
	r.tier = "tier-0"
	var comp *jit.Compiler
	if t.jit {
		r.tier = "tier-1"
		comp = s.tier1(&ecfg, t)
	}
	eng, err := s.acquire(mod, ecfg, true)
	if err != nil {
		r.err = err
		return r
	}
	defer func() {
		if p := recover(); p != nil {
			eng.Close()
			r = managedRun{err: &core.InternalError{Panic: p, Stack: string(debug.Stack())}, tier: r.tier}
		}
	}()
	r.code, r.err = s.execute(eng, true)
	r.stats = eng.Stats()
	r.out = eng.Output()
	s.pool.Put(eng)
	s.acc.steps += r.stats.Steps
	s.acc.osrEntries += r.stats.OSREntries
	s.acc.deopts += r.stats.Deopts
	s.countJIT(comp)
	return r
}

// tier1 configures ecfg for tier-1 compilation per t and returns the
// compiler, decorated with the compile timer.
func (s *stack) tier1(ecfg *core.Config, t tiering) *jit.Compiler {
	comp := jit.New()
	if t.codeCache {
		comp.Cache = s.code
	}
	ecfg.Tier1 = &timedCompiler{c: comp, s: s, async: t.async}
	ecfg.Tier1Threshold = t.threshold
	ecfg.AsyncJIT = t.async
	ecfg.OSRThreshold = t.osrThreshold
	return comp
}

// execute is one Engine.Run under a span. closeAfter joins the engine's
// background compile pool inside the span, as the facade does before it
// reads counters.
func (s *stack) execute(eng *core.Engine, closeAfter bool) (int, error) {
	id := s.tr.begin("core.run")
	t0 := time.Now()
	code, err := eng.Run()
	if closeAfter {
		eng.Close()
	}
	s.acc.runMS = append(s.acc.runMS, ms(time.Since(t0)))
	s.tr.end(id)
	return code, err
}

// countJIT adds a finished compiler's exact counters.
func (s *stack) countJIT(comp *jit.Compiler) {
	if comp == nil {
		return
	}
	cs := comp.Snapshot()
	s.acc.compiles += int64(cs.Compiled)
	s.acc.bails += int64(cs.Bailed)
	s.acc.inlined += int64(cs.Inlined)
	s.acc.instrs += int64(cs.InstrsTotal)
}

// result rebuilds what sulong.RunModule returns for this run.
func (r managedRun) result() (sulong.Result, error) {
	res := sulong.Result{ExitCode: r.code, Stdout: r.out, Stats: r.stats}
	if r.err == nil {
		return res, nil
	}
	var bug *core.BugError
	if errors.As(r.err, &bug) {
		res.Bug = bug
		res.Diagnostics = []*diag.Diagnostic{bug.Diagnostic("SafeSulong", r.tier)}
		return res, nil
	}
	return res, r.err
}

// timedCompiler decorates the tier-1 compiler with a span and a busy-time
// counter around every compilation, synchronous or on the engine's
// background pool.
type timedCompiler struct {
	c     *jit.Compiler
	s     *stack
	async bool
}

func (t *timedCompiler) Compile(e *core.Engine, fidx int) core.CompiledFunc {
	return t.timed(func() core.CompiledFunc { return t.c.Compile(e, fidx) })
}

func (t *timedCompiler) CompileOSR(e *core.Engine, fidx, header int) core.CompiledFunc {
	return t.timed(func() core.CompiledFunc { return t.c.CompileOSR(e, fidx, header) })
}

func (t *timedCompiler) timed(compile func() core.CompiledFunc) core.CompiledFunc {
	id := -1
	if !t.async {
		id = t.s.tr.begin("jit.compile")
	}
	t0 := time.Now()
	fn := compile()
	d := time.Since(t0)
	if t.async {
		t.s.tr.background("jit.compile", t0, d)
	} else {
		t.s.tr.end(id)
	}
	t.s.acc.jitMu.Lock()
	t.s.acc.jitBusy += d
	t.s.acc.jitMu.Unlock()
	return fn
}

// nativeRun is what one native-family machine run produced.
type nativeRun struct {
	tool                 sulong.Engine
	code                 int
	err                  error
	out                  string
	heapAllocs, injected int64
}

// nativeSpan names the run span of a native-family tool.
func nativeSpan(tool sulong.Engine) string {
	switch tool {
	case sulong.EngineASan:
		return "asan.run"
	case sulong.EngineMemcheck:
		return "memcheck.run"
	}
	return "nativevm.run"
}

// runNative runs mod on a native-family machine the way the facade does:
// sulong.NativeConfig, then nativevm.New, then Machine.Run. fill sets the
// run's arguments, stdin and limits.
func (s *stack) runNative(mod *ir.Module, tool sulong.Engine, fill func(*nativevm.Config)) (r nativeRun) {
	r.tool = tool
	defer func() {
		if p := recover(); p != nil {
			r = nativeRun{tool: tool, err: &core.InternalError{Panic: p, Stack: string(debug.Stack())}}
		}
	}()
	m, err := s.newMachine(mod, tool, fill)
	if err != nil {
		r.err = err
		return r
	}
	return s.runMachine(m, tool)
}

// newMachine builds a native-family machine for mod under a span.
func (s *stack) newMachine(mod *ir.Module, tool sulong.Engine, fill func(*nativevm.Config)) (*nativevm.Machine, error) {
	ncfg, err := sulong.NativeConfig(tool)
	if err != nil {
		return nil, err
	}
	fill(&ncfg)
	id := s.tr.begin("nativevm.new")
	t0 := time.Now()
	m, err := nativevm.New(mod, ncfg)
	s.acc.nativeNewUS = append(s.acc.nativeNewUS, us(time.Since(t0)))
	s.tr.end(id)
	return m, err
}

// runMachine is one Machine.Run under the tool's span.
func (s *stack) runMachine(m *nativevm.Machine, tool sulong.Engine) nativeRun {
	r := nativeRun{tool: tool}
	name := nativeSpan(tool)
	steps := m.Steps()
	id := s.tr.begin(name)
	t0 := time.Now()
	r.code, r.err = m.Run()
	s.acc.nativeRun[name] = append(s.acc.nativeRun[name], ms(time.Since(t0)))
	s.tr.end(id)
	r.out = m.Output()
	s.acc.nativeSteps += m.Steps() - steps
	mem := m.MemStats()
	r.heapAllocs, r.injected = mem.HeapAllocs, mem.InjectedFaults
	return r
}

// result rebuilds what sulong.RunModule returns for this run.
func (r nativeRun) result() (sulong.Result, error) {
	res := sulong.Result{ExitCode: r.code, Stdout: r.out}
	res.Stats.HeapAllocs, res.Stats.InjectedFaults = r.heapAllocs, r.injected
	switch e := r.err.(type) {
	case nil:
	case *core.BugError:
		res.Bug = e
	case *nativemem.Fault:
		res.Fault = e
	case *nativevm.GlibcAbort:
		res.Fault = e
	default:
		return res, r.err
	}
	if res.Bug != nil {
		res.Diagnostics = []*diag.Diagnostic{res.Bug.Diagnostic(r.tool.String(), "native")}
	}
	return res, nil
}

// detection classifies a run the way the detection matrix classifies a cell.
// It is a copy of the classification in harness.RunCaseWith (without
// retries: the corpus never panics), which is the reference it must match;
// the harness does not export it. Replay parity compares the two on every
// replayed cell.
func detection(res sulong.Result, err error) harness.Detection {
	if err != nil {
		var limit *core.LimitError
		var deadline *core.DeadlineError
		var oom *core.ResourceError
		switch {
		case errors.As(err, &limit), errors.As(err, &deadline):
			return harness.Detection{Timeout: true, Report: err.Error()}
		case errors.As(err, &oom):
			return harness.Detection{OOM: true, Report: err.Error()}
		}
		return harness.Detection{RunError: err.Error()}
	}
	var d harness.Detection
	if res.Bug != nil {
		d.Detected, d.Report = true, res.Bug.Error()
		return d
	}
	if res.Fault != nil {
		d.Crashed, d.Report = true, res.Fault.Error()
		if f, ok := res.Fault.(*nativemem.Fault); ok && f.Addr < nativemem.PageSize {
			d.Detected = true
		}
	}
	return d
}

// outcome classifies a run the way the campaign's oracles do. It is a copy
// of the classification in harness.RunModule, which is the reference it
// must match; the harness does not export it.
func outcome(res sulong.Result, err error) harness.Outcome {
	o := harness.Outcome{
		Stdout:         res.Stdout,
		Exit:           res.ExitCode,
		Steps:          res.Stats.Steps,
		HeapAllocs:     res.Stats.HeapAllocs,
		InjectedFaults: res.Stats.InjectedFaults,
	}
	if err != nil {
		var limit *core.LimitError
		var deadline *core.DeadlineError
		var oom *core.ResourceError
		var ie *core.InternalError
		switch {
		case errors.As(err, &limit):
			o.Class, o.Report = "timeout", err.Error()
		case errors.As(err, &deadline):
			o.Class, o.Report = "deadline", err.Error()
		case errors.As(err, &oom):
			o.Class, o.Report = "oom", err.Error()
		case errors.As(err, &ie):
			o.Class, o.Report = "panic", firstLine(err.Error())
		default:
			o.Class, o.Report = "error", err.Error()
		}
		return o
	}
	switch {
	case res.Bug != nil:
		o.Class, o.Report = "detected", res.Bug.Error()
		if len(res.Diagnostics) > 0 {
			o.Kind = res.Diagnostics[0].Kind
		}
	case res.Fault != nil:
		o.Class, o.Report = "crashed", res.Fault.Error()
	default:
		o.Class = "clean"
	}
	return o
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// layerMetrics turns a traced replay into the per-layer metrics.
func (s *stack) layerMetrics() []metric {
	a := &s.acc
	var out []metric
	for _, st := range []string{pipeline.StageAssemble, pipeline.StagePreprocess, pipeline.StageParse, pipeline.StageLower, pipeline.StageNativeOpt, pipeline.StageVerify} {
		v := 0.0
		if n := a.stageCount[st]; n > 0 {
			v = ms(a.stageTotal[st]) / float64(n)
		}
		out = append(out, single("pipeline."+stageName(st)+"_ms", "ms", roleLayer, "lower", v, a.stageCount[st]))
	}
	out = append(out,
		single("pipeline.lookup_us", "us", roleLayer, "lower", percentile(a.lookupUS, 0.5), len(a.lookupUS)),
		count("pipeline.module_instrs", roleLayer, "lower", a.modInstrs),
		single("core.engine_new_us", "us", roleLayer, "lower", percentile(a.newUS, 0.5), len(a.newUS)),
		single("core.engine_acquire_us", "us", roleLayer, "lower", percentile(a.acquireUS, 0.5), len(a.acquireUS)),
		single("core.run_ms", "ms", roleLayer, "lower", mean(a.runMS), len(a.runMS)),
		count("core.steps", roleLayer, "lower", a.steps),
		count("jit.compiles", roleLayer, "lower", a.compiles),
		count("jit.bails", roleLayer, "lower", a.bails),
		count("jit.inlined", roleLayer, "higher", a.inlined),
		count("jit.instrs_compiled", roleLayer, "lower", a.instrs),
		count("jit.osr_entries", roleLayer, "higher", a.osrEntries),
		count("jit.deopts", roleLayer, "lower", a.deopts),
		single("nativevm.new_us", "us", roleLayer, "lower", percentile(a.nativeNewUS, 0.5), len(a.nativeNewUS)),
		single("nativevm.run_ms", "ms", roleLayer, "lower", mean(a.allNativeRunMS()), len(a.allNativeRunMS())),
		count("nativevm.steps", roleLayer, "lower", a.nativeSteps),
		count("campaign.oracle_runs", roleLayer, "lower", a.oracleRuns),
		single("harness.op_ms_p50", "ms", roleLayer, "lower", percentile(a.opMS, 0.5), len(a.opMS)),
		single("harness.op_ms_p99", "ms", roleLayer, "lower", percentile(a.opMS, 0.99), len(a.opMS)),
	)
	// Self-time shares sum to about 1, so no direction improves them all;
	// they are printed and recorded, not put in the result line.
	self, wall := s.tr.selfTimes(s.tr.rounds, -1, layerOf)
	for _, l := range layers {
		v := 0.0
		if wall > 0 {
			v = float64(self[l]) / float64(wall)
		}
		out = append(out, ratio("self."+l, roleNamed, "", v))
	}
	// Layer numbers only some workloads exercise, under the names the
	// layers go by; printed and recorded when the replay produced samples.
	named := func(name, unit string, xs []float64, v float64) {
		if len(xs) > 0 {
			out = append(out, single(name, unit, roleNamed, "lower", v, len(xs)))
		}
	}
	named("core.engine_reset_us", "us", a.resetUS, percentile(a.resetUS, 0.5))
	a.jitMu.Lock()
	busy := a.jitBusy
	a.jitMu.Unlock()
	if a.compiles+a.bails > 0 {
		out = append(out, single("jit.compile_ms", "ms", roleNamed, "lower", ms(busy), int(a.compiles+a.bails)))
	}
	named("asan.run_ms", "ms", a.nativeRun["asan.run"], mean(a.nativeRun["asan.run"]))
	named("memcheck.run_ms", "ms", a.nativeRun["memcheck.run"], mean(a.nativeRun["memcheck.run"]))
	named("gen.generate_us", "us", a.genUS, percentile(a.genUS, 0.5))
	named("sulong.release_us", "us", a.releaseUS, percentile(a.releaseUS, 0.5))
	return out
}

func (a *accounting) allNativeRunMS() []float64 {
	var all []float64
	for _, xs := range a.nativeRun {
		all = append(all, xs...)
	}
	return all
}

// parity compares a replayed run with the untraced driver's run of the
// same input and describes any difference.
func parity(what string, replayed, untraced harness.Outcome) string {
	if replayed.Signature() == untraced.Signature() {
		return ""
	}
	return fmt.Sprintf("replay parity: %s: replayed {%s} != untraced {%s}", what, replayed.Signature(), untraced.Signature())
}
