package sulong_test

// The native machine's golden digest: every observable of a native run —
// stdout, exit, Steps, the report and its stacks, memcheck's leaks and the
// heap counters — pinned for every corpus case, native column and fault
// plan, the benchmark programs and a window of step budgets. A change to
// how the machine executes must leave every row byte-identical.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	sulong "repro"
	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/memcheck"
	"repro/internal/nativevm"
)

// nativeGoldenFile holds nativeGoldenRows' output, one line each.
// Regenerate it only for a change meant to move native execution.
const nativeGoldenFile = "testdata/native_golden.txt"

// nativeGoldenSizes are the benchmark programs' arguments in the peak
// workload of the benchmark protocol.
var nativeGoldenSizes = map[string]string{
	"binarytrees": "6", "fannkuchredux": "6", "fasta": "500", "fastaredux": "2000",
	"mandelbrot": "20", "meteor": "6", "nbody": "1000", "spectralnorm": "30", "whetstone": "6",
}

// nativeGoldenRun is one run of the golden table.
type nativeGoldenRun struct {
	name   string
	src    string
	args   []string
	stdin  string
	engine sulong.Engine
	opt    int
	plan   fault.Plan
	steps  int64 // the step budget
	// window, when positive, expands the run into step-limit rows: the
	// budgets S/2 .. S/2+window-1, where S is this run's full step count.
	window int
}

// run executes r on a fresh machine and renders every observable.
func (r nativeGoldenRun) run(t *testing.T) (string, int64) {
	mod, err := sulong.CompileFor(r.src, sulong.Config{Engine: r.engine, OptLevel: r.opt})
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	cfg, err := sulong.NativeConfig(r.engine)
	if err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	cfg.Args, cfg.Stdin, cfg.Stdout = r.args, strings.NewReader(r.stdin), &stdout
	cfg.MaxSteps, cfg.FaultPlan = r.steps, r.plan
	if r.stdin == "" {
		cfg.Stdin = nil
	}
	m, err := nativevm.New(mod, cfg)
	if err != nil {
		return "new: " + err.Error(), 0
	}
	code, err := m.Run()
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d steps=%d mem=%+v\n", code, m.Steps(), m.MemStats())
	if err != nil {
		fmt.Fprintf(&b, "err %T: %s\n", err, err)
		var bug *core.BugError
		var res *core.ResourceError
		switch {
		case errors.As(err, &bug):
			b.WriteString(bug.Diagnostic(r.engine.String(), "native").Render())
		case errors.As(err, &res):
			b.WriteString(res.Guest.String())
		}
	}
	if mc, ok := m.Tool().(*memcheck.Tool); ok {
		for _, l := range mc.Leaks() {
			b.WriteString(l.Diagnostic(r.engine.String(), "native").Render())
		}
	}
	b.WriteString("stdout:\n" + stdout.String())
	return b.String(), m.Steps()
}

// line renders r's golden line: its name, Steps, and the digest of every
// observable.
func (r nativeGoldenRun) line(t *testing.T) (string, int64) {
	text, steps := r.run(t)
	sum := sha256.Sum256([]byte(text))
	return fmt.Sprintf("%s steps=%d %s", r.name, steps, hex.EncodeToString(sum[:12])), steps
}

// nativeGoldenRuns lists the table: every corpus case under every native
// column and plan (the Clang -O0 and Valgrind -O0 clean runs each open a
// step-limit window), and every benchmark program at its peak size under
// Clang -O0 and -O3, ASan and memcheck.
func nativeGoldenRuns() []nativeGoldenRun {
	var runs []nativeGoldenRun
	for _, c := range corpus.All() {
		for _, col := range nativeColumns {
			for _, plan := range parityPlans {
				r := nativeGoldenRun{
					name: fmt.Sprintf("corpus/%s %s plan=%d", c.Name, col.name, plan.FailNth),
					src:  c.Source, args: c.Args, stdin: c.Stdin,
					engine: col.engine, opt: col.opt, plan: plan, steps: harness.DefaultMaxSteps,
				}
				if !plan.Enabled() && col.opt == 0 && col.engine != sulong.EngineASan {
					r.window = 17
				}
				runs = append(runs, r)
			}
		}
	}
	tools := []struct {
		name   string
		engine sulong.Engine
		opt    int
	}{
		{"Clang-O0", sulong.EngineNative, 0},
		{"Clang-O3", sulong.EngineNative, 3},
		{"ASan-O0", sulong.EngineASan, 0},
		{"Valgrind-O0", sulong.EngineMemcheck, 0},
	}
	for _, b := range benchprog.All() {
		for _, tool := range tools {
			arg := nativeGoldenSizes[b.Name]
			runs = append(runs, nativeGoldenRun{
				name: fmt.Sprintf("benchprog/%s(%s) %s", b.Name, arg, tool.name),
				src:  b.Source, args: []string{arg}, engine: tool.engine, opt: tool.opt,
			})
		}
	}
	return runs
}

// nativeGoldenRows renders the golden file's lines. Each run's line is
// followed by its step-limit window's lines, S/2 first.
func nativeGoldenRows(t *testing.T) []string {
	runs := nativeGoldenRuns()
	rows := make([][]string, len(runs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := runs[i]
				line, steps := r.line(t)
				rows[i] = append(rows[i], line)
				for k := 0; k < r.window; k++ {
					lr := r
					lr.steps = steps/2 + int64(k)
					lr.name = fmt.Sprintf("%s maxsteps=S/2+%d", r.name, k)
					line, _ := lr.line(t)
					rows[i] = append(rows[i], line)
				}
			}
		}()
	}
	for i := range runs {
		work <- i
	}
	close(work)
	wg.Wait()
	var out []string
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// TestNativeGolden runs the golden table and compares every row with the
// committed digest.
func TestNativeGolden(t *testing.T) {
	data, err := os.ReadFile(nativeGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := nativeGoldenRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows, the golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("native run changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
