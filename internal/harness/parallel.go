package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
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

// forEachCell fans fn out over a rows × cols grid on ForEach's pool. Claim
// k runs cell (k % rows, k / rows), column by column: workers running at
// the same time take one column of neighbouring rows. The drivers make
// cases the rows, and a case's native-tool columns share its compiled
// modules, so in row order one worker would wait on another's compile of
// the same case. fn places its result by (row, col), so output does not
// depend on the claim order or the worker count.
func forEachCell(rows, cols, workers int, fn func(row, col int)) {
	ForEach(rows*cols, workers, func(k int) { fn(k%rows, k/rows) })
}

// serialProgress returns a callback to call once per completed item: it
// reports the running count to progress, serialized, so progress needs no
// locking of its own. A nil progress makes it a no-op.
func serialProgress(progress func(done, total int), total int) func() {
	var mu sync.Mutex
	var done int
	return func() {
		if progress == nil {
			return
		}
		mu.Lock()
		done++
		progress(done, total)
		mu.Unlock()
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
	// Budget bounds and configures every cell (see CaseBudget). Its
	// Timeout classifies a cell that trips it Timeout while the rest of the
	// matrix completes normally; persistent engine panics are quarantined
	// into MatrixResult.Quarantined instead of aborting the matrix.
	Budget CaseBudget
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
	tick := serialProgress(opts.Progress, total)
	forEachCell(len(cases), nt, opts.Workers, func(ci, ti int) {
		grid[ci*nt+ti] = RunCaseWith(cases[ci], tools[ti], opts.Budget)
		tick()
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
