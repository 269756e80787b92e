package main

import (
	"fmt"
	"time"

	sulong "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/nativevm"
	"repro/internal/pipeline"
)

// coldRun is the paper's §4.2 start-up as one developer meets it: `sulong
// prog.c` with its defaults (JIT on) on a program it has never seen. Each
// request generates the next program of the seeded stream, compiles and
// runs it through the facade and releases its module, so no lookup is ever
// a cache hit and the pipeline stages do nearly all the work. Precompiling
// libc should move this workload; tuning cache hits should not.
type coldRun struct {
	o    options
	next int // index of the next program in the seeded stream
	refs []coldRef
}

// coldRef is the untraced driver's record of one program: what the
// after-round native check and the replay's parity check compare against.
type coldRef struct {
	idx    int
	src    string
	out    harness.Outcome // Safe Sulong through the facade
	native harness.Outcome // Native -O0, for programs that ran clean
}

var coldConfig = sulong.Config{Engine: sulong.EngineSafeSulong, JIT: true}

const helloSrc = `#include <stdio.h>
int main(void) { printf("Hello, World!\n"); return 0; }
`

func newColdRun(o options) *coldRun { return &coldRun{o: o} }

func (c *coldRun) workers() int { return 1 }

// setup is a hello-world cold start: the first libc+program compile and run
// of a process.
func (c *coldRun) setup() error {
	res, err := runOne(helloSrc, coldConfig)
	if err != nil {
		return err
	}
	if res.Stdout != "Hello, World!\n" {
		return fmt.Errorf("hello world printed %q", res.Stdout)
	}
	return nil
}

// runOne is one `sulong prog.c`: compile, run, release.
func runOne(src string, cfg sulong.Config) (sulong.Result, error) {
	mod, err := sulong.CompileFor(src, cfg)
	if err != nil {
		return sulong.Result{}, err
	}
	defer sulong.ReleaseModule(mod)
	return sulong.RunModule(mod, cfg)
}

func (c *coldRun) round(deadline time.Time) roundResult {
	r := roundResult{requests: map[string][]time.Duration{}}
	hits := sulong.CacheStats().Hits
	for time.Now().Before(deadline) {
		idx := c.next
		c.next++
		info := gen.Generate(gen.SeedAt(c.o.seed, idx))
		t0 := time.Now()
		res, err := runOne(info.Source, coldConfig)
		r.requests[""] = append(r.requests[""], time.Since(t0))
		r.ops++
		r.attempted++
		o := outcome(res, err)
		// The generator tags every injected defect; Safe Sulong must report
		// exactly those programs, and run the rest clean.
		want := "clean"
		if info.Bug != "" {
			want = "detected"
		}
		if o.Class != want {
			r.failures = append(r.failures, fmt.Sprintf("cold-run program %d (bug %q): Safe Sulong says %s: %s", idx, info.Bug, o.Class, firstLine(o.Report)))
		}
		c.refs = append(c.refs, coldRef{idx: idx, src: info.Source, out: o})
	}
	if h := sulong.CacheStats().Hits - hits; h != 0 {
		r.failures = append(r.failures, fmt.Sprintf("cold-run: %d module-cache hits, want none", h))
	}
	return r
}

// finish checks every clean program's stdout and exit code against the
// Native -O0 machine, after the timed rounds.
func (c *coldRun) finish(rs []roundResult) ([]metric, []string) {
	var failures []string
	for i := range c.refs {
		ref := &c.refs[i]
		if ref.out.Class != "clean" {
			continue
		}
		ref.native = outcome(runOne(ref.src, sulong.Config{Engine: sulong.EngineNative}))
		if ref.native.Stdout != ref.out.Stdout || ref.native.Exit != ref.out.Exit {
			failures = append(failures, fmt.Sprintf("cold-run program %d: Safe Sulong (exit %d) and Native -O0 (exit %d, %s) disagree on stdout",
				ref.idx, ref.out.Exit, ref.native.Exit, ref.native.Class))
		}
	}
	lat := requestsMS(rs)
	return []metric{
		groupedLatency("cold_run_ms_p50", roleNamed, map[string][]float64{"": lat}),
		single("cold_run_ms_p99", "ms", roleNamed, "lower", percentile(lat, 0.99), len(lat)),
	}, failures
}

// replay re-runs the first programs of the stream through the layer calls:
// pipeline.Compile, EnginePool.Get, Engine.Run, release; then, for clean
// programs, the Native -O0 check through NativeConfig, nativevm.New and
// Machine.Run.
func (c *coldRun) replay(st *stack) []string {
	n := 40
	if c.o.small {
		n = 2
	}
	if n > len(c.refs) {
		n = len(c.refs)
	}
	var failures []string
	st.op(func() {
		if res, err := c.replayOne(st, helloSrc); err != nil || res.Stdout != "Hello, World!\n" {
			failures = append(failures, fmt.Sprintf("cold-run replay: hello world: %v, stdout %q", err, res.Stdout))
		}
	})
	st.markRounds()
	for _, ref := range c.refs[:n] {
		var o harness.Outcome
		st.op(func() {
			info := st.generate(func() gen.Info { return gen.Generate(gen.SeedAt(c.o.seed, ref.idx)) })
			o = outcome(c.replayOne(st, info.Source))
		})
		if f := parity(fmt.Sprintf("cold-run program %d", ref.idx), o, ref.out); f != "" {
			failures = append(failures, f)
		}
		if ref.out.Class != "clean" {
			continue
		}
		var native harness.Outcome
		st.check(func() {
			res, err := st.compile(pipeline.Request{Source: ref.src, Flavor: pipeline.FlavorNative})
			if err != nil {
				native = outcome(sulong.Result{}, err)
				return
			}
			defer st.release(res.Module)
			native = outcome(st.runNative(res.Module, sulong.EngineNative, func(*nativevm.Config) {}).result())
		})
		if f := parity(fmt.Sprintf("cold-run program %d under Native -O0", ref.idx), native, ref.native); f != "" {
			failures = append(failures, f)
		}
	}
	return failures
}

// replayOne is runOne through the layer calls.
func (c *coldRun) replayOne(st *stack, src string) (sulong.Result, error) {
	res, err := st.compile(pipeline.Request{Source: src, Flavor: pipeline.FlavorManaged})
	if err != nil {
		return sulong.Result{}, err
	}
	defer st.release(res.Module)
	return st.runManaged(res.Module, core.Config{}, tiering{jit: true, codeCache: true}).result()
}
