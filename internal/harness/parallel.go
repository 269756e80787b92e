package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/fault"
)

// ForEach fans fn out over n items on a bounded worker pool. workers <= 0
// means one worker per available CPU (GOMAXPROCS); workers == 1 degrades to
// a plain serial loop, guaranteeing identical side-effect ordering to the
// historical drivers. fn receives the item index; result placement is the
// caller's responsibility (index into a pre-sized slice for deterministic
// assembly regardless of completion order).
//
// A panic in fn does not kill the worker's goroutine silently (which would
// deadlock wg.Wait in older Go) nor crash the process from a goroutine the
// caller cannot recover on: the first panic is captured, the remaining work
// is drained, and the panic is re-raised on the caller's goroutine.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var panicked atomic.Pointer[workerPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &workerPanic{item: i, value: r, stack: debug.Stack()})
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(fmt.Sprintf("harness.ForEach: worker panic on item %d: %v\n%s", p.item, p.value, p.stack))
	}
}

// workerPanic records the first panic observed by a ForEach worker.
type workerPanic struct {
	item  int
	value any
	stack []byte
}

// MatrixOptions configures the detection-matrix driver.
type MatrixOptions struct {
	// Workers bounds the goroutine pool. <= 0 uses GOMAXPROCS; 1 runs the
	// matrix serially.
	Workers int
	// Cases restricts the corpus (nil = corpus.All()).
	Cases []corpus.Case
	// Tools restricts the matrix columns (nil = Tools()).
	Tools []Tool
	// Progress, when non-nil, is called after every completed cell with the
	// running count. Calls are serialized.
	Progress func(done, total int)
	// MaxSteps is the per-cell step budget (0 = DefaultMaxSteps, < 0 =
	// engine default). Deterministic: a case that exhausts it produces the
	// same Timeout cell at any worker count.
	MaxSteps int64
	// CaseTimeout is a per-cell wall-clock deadline (0 = none). A cell that
	// trips it is classified Timeout, and the rest of the matrix completes
	// normally.
	CaseTimeout time.Duration
	// MaxHeapBytes / MaxAllocBytes bound per-cell guest memory (0 =
	// unlimited / engine default). Hard exhaustion classifies the cell
	// "oom" — deterministic, so renders match at any worker count.
	MaxHeapBytes  int64
	MaxAllocBytes int64
	// FaultPlan injects deterministic guest allocation failures into every
	// cell (see internal/fault.Plan).
	FaultPlan fault.Plan
	// MaxRetries re-runs cells that die with a contained engine panic up to
	// this many extra times (bounded deterministic backoff); persistent
	// failures are quarantined into MatrixResult.Quarantined instead of
	// aborting the matrix. 0 = no retries.
	MaxRetries int
	// JIT/JITThreshold/JITAsync/OSR/OSRThreshold configure SafeSulong cells'
	// tiering (see CaseBudget); other tools ignore them.
	JIT          bool
	JITThreshold int64
	JITAsync     bool
	OSR          bool
	OSRThreshold int64
}

// RunDetectionMatrixWith runs the corpus×tool evaluation matrix on a
// bounded worker pool. Each (case, tool) cell is an independent job; cells
// land in a pre-indexed grid, so the assembled MatrixResult — cells, totals
// and rendering — is byte-identical for any worker count. Compilation of a
// given translation unit happens once process-wide (the pipeline module
// cache coalesces concurrent compiles), so the matrix cost is dominated by
// execution and scales with the number of cores.
func RunDetectionMatrixWith(opts MatrixOptions) *MatrixResult {
	cases := opts.Cases
	if cases == nil {
		cases = corpus.All()
	}
	tools := opts.Tools
	if tools == nil {
		tools = Tools()
	}
	nt := len(tools)
	total := len(cases) * nt
	grid := make([]Detection, total)

	budget := CaseBudget{
		MaxSteps:      opts.MaxSteps,
		Timeout:       opts.CaseTimeout,
		MaxHeapBytes:  opts.MaxHeapBytes,
		MaxAllocBytes: opts.MaxAllocBytes,
		FaultPlan:     opts.FaultPlan,
		MaxRetries:    opts.MaxRetries,
		JIT:           opts.JIT,
		JITThreshold:  opts.JITThreshold,
		JITAsync:      opts.JITAsync,
		OSR:           opts.OSR,
		OSRThreshold:  opts.OSRThreshold,
	}
	var progressMu sync.Mutex
	var done int
	// Longest-first claim order from the duration model (cold start: index
	// order). Cells land by index, so the grid — and everything rendered
	// from it — is byte-identical whatever order the workers claimed.
	order := costs.order(total, func(i int) string {
		return cases[i/nt].Name + "|" + tools[i%nt].String()
	})
	ForEachOrdered(total, opts.Workers, order, func(i int) {
		c := cases[i/nt]
		tool := tools[i%nt]
		costs.timedCell(c.Name+"|"+tool.String(), func() {
			grid[i] = RunCaseWith(c, tool, budget)
		})
		if opts.Progress != nil {
			progressMu.Lock()
			done++
			opts.Progress(done, total)
			progressMu.Unlock()
		}
	})

	m := &MatrixResult{
		Cases:  cases,
		Cells:  make(map[string]map[Tool]Detection, len(cases)),
		Totals: map[Tool]int{},
	}
	for ci, c := range cases {
		row := make(map[Tool]Detection, nt)
		for ti, tool := range tools {
			cell := grid[ci*nt+ti]
			row[tool] = cell
			if cell.Detected {
				m.Totals[tool]++
			}
			if cell.Quarantined {
				// Deterministic (case, tool) order: the grid is walked in
				// index order regardless of which worker filled each cell.
				m.Quarantined = append(m.Quarantined, fmt.Sprintf("%s / %s", c.Name, tool))
			}
		}
		m.Cells[c.Name] = row
	}
	return m
}
