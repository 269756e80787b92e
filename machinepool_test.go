package sulong_test

// The native machine pool (sulong.MachinePoolStats): a parked machine is
// Reset for the next run of its module, and that run must be
// indistinguishable from one on a machine built fresh. These tests are
// sequential, so no parallel test moves the pool's counters under them.

import (
	"fmt"
	"strings"
	"testing"

	sulong "repro"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harness"
)

// nativeColumns are the detection matrix's native-family columns.
var nativeColumns = []struct {
	name   string
	engine sulong.Engine
	opt    int
}{
	{"ASan-O0", sulong.EngineASan, 0},
	{"ASan-O3", sulong.EngineASan, 3},
	{"Valgrind-O0", sulong.EngineMemcheck, 0},
	{"Valgrind-O3", sulong.EngineMemcheck, 3},
	{"Native-O0", sulong.EngineNative, 0},
}

// staleToolState is a program whose outcome under ASan shows poison and
// quarantine left over from a run with arguments. That run frees a large
// block, which stays quarantined and poisoned. Without arguments, a fresh
// tool reports nothing for q[100], past q's redzone (Fig. 14's blind spot),
// but stale freed poison there would be reported. A fresh tool keeps p
// quarantined and reports p[0], but a stale quarantine entry would push p
// out on its free.
const staleToolState = `#include <stdlib.h>
int main(int argc, char **argv) {
	if (argc > 1) {
		char *big = malloc(200000);
		free(big);
		return 0;
	}
	char *q = malloc(32);
	char c = q[100];
	char *p = malloc(100000);
	free(p);
	return p[0] + c;
}
`

// stalePages is a program whose clean run reads memory and shadow a run
// with arguments left behind. That run fills a global, a stack buffer and
// a heap block (a page each at least), prints one byte of each to show the
// writes landed, and keeps a 2000-byte block live: its A-bits addressable
// under memcheck, its redzones poisoned under ASan. Without arguments, the
// program writes the byte after each of the three, so its page is backed
// again, and reads the byte itself uninitialized, which reads zero on a
// fresh machine. Then it reads past a small block allocated where the
// large one was: at q[100], which only the large block's stale A-bits make
// addressable to memcheck, and at q[2005], in the large block's right
// redzone, which a fresh ASan never shadowed (Fig. 14's blind spot).
const stalePages = `#include <stdio.h>
#include <stdlib.h>
#include <string.h>
char table[6000];
int main(int argc, char **argv) {
	char buf[4096];
	char *h = malloc(4096), *q;
	int sum;
	if (!h)
		return 2;
	if (argc > 1) {
		memset(table, 'G', sizeof table);
		memset(buf, 'S', sizeof buf);
		memset(h, 'H', 4096);
		if ((q = malloc(2000)))
			memset(q, 'K', 2000);
		printf("dirtied %c%c%c\n", table[5000], buf[100], h[100]);
		return 0;
	}
	table[5001] = buf[101] = h[101] = 1;
	printf("%d %d %d\n", table[5000], buf[100], h[100]);
	if (!(q = malloc(16)))
		return 3;
	sum = q[100];
	sum += q[2005];
	printf("%d\n", sum);
	return 0;
}
`

// TestNativeReuseCacheParity runs every corpus case, staleToolState and
// stalePages under every native column and plan twice through the pool.
// Run 1 dirties the machine with another plan, other arguments and other
// stdin; run 2 takes that machine back from the pool and must equal a
// NoCache run on a fresh machine in every observable Outcome.Diff compares,
// memcheck's leaks included.
func TestNativeReuseCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep skipped in -short mode")
	}
	// What run 1 left behind, per column: stdout, live heap blocks, freed
	// blocks (ASan's quarantine and freed poison), laid-out globals,
	// written heap, global and stack pages that run 2 reads uninitialized
	// (stalePages' "dirtied" line), and, under a tool, the shadow of the
	// large block stalePages keeps live, which run 2 reads past a small one.
	type dirt struct{ stdout, live, freed, globals, pages, shadow int }
	dirty := map[string]*dirt{}
	for _, col := range nativeColumns {
		dirty[col.name] = &dirt{}
	}
	extra := []corpus.Case{{Name: "stale-tool-state", Source: staleToolState}, {Name: "stale-pages", Source: stalePages}}
	for _, c := range append(corpus.All(), extra...) {
		for _, col := range nativeColumns {
			base := sulong.Config{Engine: col.engine, OptLevel: col.opt, MaxSteps: harness.DefaultMaxSteps}
			mod, err := sulong.CompileFor(c.Source, base)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			cold := base
			cold.NoCache = true
			fresh, err := sulong.CompileFor(c.Source, cold)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			for _, plan := range parityPlans {
				where := fmt.Sprintf("%s/%s/%v", c.Name, col.name, plan)
				dirtyCfg := base
				dirtyCfg.Args = append(append([]string{}, c.Args...), "--dirty", "0")
				dirtyCfg.Stdin = strings.NewReader("-1 overflow " + strings.Repeat("A", 300) + "\n" + c.Stdin)
				dirtyCfg.FaultPlan = fault.Plan{FailNth: 3}
				if plan.Enabled() {
					dirtyCfg.FaultPlan = fault.Plan{}
				}
				res1, _ := sulong.RunModule(mod, dirtyCfg)
				d := dirty[col.name]
				if res1.Stdout != "" {
					d.stdout++
				}
				if res1.Stats.HeapInUseBytes > 0 {
					d.live++
				}
				if res1.Stats.HeapAllocBytes > res1.Stats.HeapInUseBytes {
					d.freed++
				}
				if len(mod.Globals) > 0 {
					d.globals++
				}
				if strings.Contains(res1.Stdout, "dirtied GSH\n") {
					d.pages++
				}
				if col.engine != sulong.EngineNative && strings.Contains(res1.Stdout, "dirtied GSH\n") && res1.Stats.HeapInUseBytes == 4096+2000 {
					d.shadow++
				}

				cfg := base
				cfg.Args = c.Args
				cfg.Stdin = strings.NewReader(c.Stdin)
				cfg.FaultPlan = plan
				hits := sulong.MachinePoolStats().Hits
				got := harness.Classify(sulong.RunModule(mod, cfg))
				if n := sulong.MachinePoolStats().Hits - hits; n != 1 {
					t.Errorf("%s: run 2 took %d machines from the pool, want 1", where, n)
				}
				cfg.NoCache = true
				cfg.Stdin = strings.NewReader(c.Stdin)
				want := harness.Classify(sulong.RunModule(fresh, cfg))
				if diff := got.Diff(want); diff != "" {
					t.Errorf("%s: pooled run != fresh run: %s", where, diff)
				}
			}
		}
	}
	// The dirtying runs must have dirtied what Reset rebuilds, in every
	// column, or the parity above shows nothing.
	shadowed := 0
	for _, col := range nativeColumns {
		d := dirty[col.name]
		if d.stdout == 0 || d.live == 0 || d.freed == 0 || d.globals == 0 || d.pages == 0 {
			t.Errorf("%s: dirtying runs left stdout %d, live heap %d, freed blocks %d, globals %d, written pages %d times; want each > 0",
				col.name, d.stdout, d.live, d.freed, d.globals, d.pages)
		}
		shadowed += d.shadow
	}
	if shadowed == 0 {
		t.Error("no dirtying run left a live block's shadow behind under a tool")
	}
}

// TestMachinePoolCacheHits pins the pools' hits on the warm detection
// matrix: a second pass takes every native cell's machine and every Safe
// Sulong engine from the pools, and ReleaseModule and ResetCodeCache leave
// no machine of a module parked.
func TestMachinePoolCacheHits(t *testing.T) {
	cases := corpus.All()
	opts := harness.MatrixOptions{Workers: 2, Cases: cases}
	harness.RunDetectionMatrixWith(opts)
	machines, engines := sulong.MachinePoolStats(), sulong.EnginePoolStats()
	harness.RunDetectionMatrixWith(opts)
	m, e := sulong.MachinePoolStats(), sulong.EnginePoolStats()
	if hits, misses := m.Hits-machines.Hits, m.Misses-machines.Misses; hits != uint64(5*len(cases)) || misses != 0 {
		t.Errorf("second pass: %d machine hits and %d misses, want %d and 0", hits, misses, 5*len(cases))
	}
	if hits, misses := e.Hits-engines.Hits, e.Misses-engines.Misses; hits != uint64(len(cases)) || misses != 0 {
		t.Errorf("second pass: %d engine hits and %d misses, want %d and 0", hits, misses, len(cases))
	}

	c := cases[0]
	cfg := sulong.Config{Engine: sulong.EngineASan, Args: c.Args, Stdin: strings.NewReader(c.Stdin), MaxSteps: harness.DefaultMaxSteps}
	mod, err := sulong.CompileFor(c.Source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// runMissed runs mod once and reports whether the run built a machine.
	runMissed := func() bool {
		before := sulong.MachinePoolStats()
		cfg.Stdin = strings.NewReader(c.Stdin)
		if _, err := sulong.RunModule(mod, cfg); err != nil {
			t.Fatal(err)
		}
		after := sulong.MachinePoolStats()
		return after.Misses == before.Misses+1 && after.Hits == before.Hits
	}
	if runMissed() {
		t.Fatal("a warm run of a matrix module built a machine")
	}
	sulong.ReleaseModule(mod)
	if !runMissed() {
		t.Error("a run after ReleaseModule took a parked machine")
	}
	sulong.ResetCodeCache()
	if st := sulong.MachinePoolStats(); st.Idle != 0 {
		t.Errorf("ResetCodeCache left %d machines parked", st.Idle)
	}
	if !runMissed() {
		t.Error("a run after ResetCodeCache took a parked machine")
	}
}
