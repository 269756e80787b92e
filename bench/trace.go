package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// span is one timed call into a layer. The benchmark records spans from its
// own files, around the public entry point it calls; nothing inside the
// program under test is instrumented.
type span struct {
	Name  string
	Start time.Duration // since the tracer's epoch
	End   time.Duration
	// Parent indexes the enclosing span on the same lane (-1 at top level).
	Parent int
	// Op identifies the replayed operation (program, cell, iteration) the
	// span belongs to.
	Op int
	// Lane 0 is the replay's own goroutine; lane 1 a background compile
	// worker, whose spans overlap lane-0 work instead of blocking it.
	Lane int
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so the untraced replay
// runs the same code with one nil check per layer call.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex // background compile workers record spans concurrently
	spans  []span
	open   []int // lane-0 stack of open spans
	op     int
	rounds time.Duration // start of the round phase (set-up phase before it)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a lane-0 span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// beginOp starts a new operation and opens its top-level span.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	return t.begin(name)
}

// end closes span id, which must be the innermost open lane-0 span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// endAs closes span id under a name decided by what the call did (an
// engine acquire that turned out to be a pool reset, say).
func (t *tracer) endAs(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
	t.end(id)
}

// background records a finished lane-1 span (a compile on a worker pool).
func (t *tracer) background(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.epoch)
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d, Parent: -1, Op: t.op, Lane: 1})
}

// stages adds the pipeline's per-stage timings as children of the closed
// compile span id. The pipeline reports durations, not start times, so the
// stages are laid back to back ending where the compile ended: its cache
// lookup (assembling and hashing the file set) runs before them.
func (t *tracer) stages(id int, st []pipeline.StageTiming) {
	if t == nil || id < 0 || len(st) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.spans[id]
	at := parent.End
	for i := len(st) - 1; i >= 0; i-- {
		at -= st[i].Duration
	}
	for _, s := range st {
		t.spans = append(t.spans, span{
			Name: "pipeline." + stageName(s.Stage), Start: at, End: at + s.Duration,
			Parent: id, Op: parent.Op,
		})
		at += s.Duration
	}
}

// markRounds ends the set-up phase: self-time shares describe the spans
// that start after it, the replayed rounds.
func (t *tracer) markRounds() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rounds = t.now()
	t.mu.Unlock()
}

// stageName turns a pipeline stage name into a metric name component.
func stageName(stage string) string { return strings.ReplaceAll(stage, "-", "_") }

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	switch name {
	case "op", "check":
		return "harness"
	case "core.acquire", "core.new", "core.reset", "nativevm.new":
		return "engine"
	case "core.run":
		return "run"
	case "nativevm.run":
		return "nativevm"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layers lists every layer a self-time share is reported for.
var layers = []string{"pipeline", "engine", "run", "jit", "nativevm", "asan", "memcheck", "gen", "release", "harness"}

// selfTimes sums each span's self time — its duration minus the part its
// lane-0 children cover — by key, over the spans that start in [from, to)
// (to < 0: no upper end). Background spans block nothing, so they never
// reduce a parent's self time. It also returns the wall clock those spans
// cover.
func (t *tracer) selfTimes(from, to time.Duration, key func(string) string) (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Lane == 0 && s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	var last time.Duration
	for i, s := range t.spans {
		if s.Start < from || (to >= 0 && s.Start >= to) {
			continue
		}
		self := s.End - s.Start
		if s.Lane == 0 {
			self -= covered[i]
		}
		out[key(s.Name)] += self
		if s.End > last {
			last = s.End
		}
	}
	wall := last - from
	if wall < 0 {
		wall = 0
	}
	return out, wall
}

// printSelfTimes writes the self-time table by span for the set-up and
// round phases.
func (t *tracer) printSelfTimes(w io.Writer) {
	for _, phase := range []struct {
		name     string
		from, to time.Duration
	}{{"set-up", 0, t.rounds}, {"rounds", t.rounds, -1}} {
		self, _ := t.selfTimes(phase.from, phase.to, func(n string) string { return n })
		var total time.Duration
		names := make([]string, 0, len(self))
		for n, d := range self {
			names = append(names, n)
			total += d
		}
		if total == 0 {
			continue
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Fprintf(w, "self time by span, %s phase (%.1f ms busy):\n", phase.name, ms(total))
		for _, n := range names {
			fmt.Fprintf(w, "  %-22s %-9s %10.2f ms %6.1f%%\n", n, layerOf(n), ms(self[n]), 100*float64(self[n])/float64(total))
		}
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Lane + 1,
			Args: map[string]int{"op": s.Op, "parent": s.Parent},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
