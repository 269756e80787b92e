// Tiering: the compile queue and on-stack replacement at hot loop
// back-edges.
//
// Tier-up is the Graal-shaped pipeline the paper's Safe Sulong inherits from
// Truffle, one state machine per (function, loop header) site:
//
//		profile → enqueue → compile → install → OSR
//
//	  - Profiling: one hotness count per function, its calls (counted in
//	    invoke) plus the loop back edges its tier-0 activations take
//	    (counted in the interpreter), as Truffle's loops report their
//	    iterations to the enclosing call target. Invoke tests it against
//	    Tier1Threshold at call entry, so a hot loop promotes its function
//	    at the function's next call, and a function called once is never
//	    entry-compiled. With OSR on, per-(function, loop header) back-edge
//	    counts also promote a loop inside the running activation.
//	  - Enqueue hands a (function, header) key to the compile queue. A
//	    synchronous engine is the queue with no worker: the request compiles
//	    on the engine thread and installs at once, so the compile pause is on
//	    the critical path. With Config.AsyncJIT a bounded goroutine pool
//	    owned by the engine compiles against the immutable module (the
//	    tier-1 compiler clones before optimizing) while tier-0 keeps running.
//	  - Install is the safe publication point: workers never touch engine
//	    state; they post results to a mutex-guarded mailbox, and the engine —
//	    which is single-threaded — drains it at dispatch points (call entry,
//	    back edge). Compiled code therefore becomes visible only between
//	    guest instructions, never in the middle of one.
//	  - OSR transfers a live interpreter activation into compiled code at a
//	    loop header. OSR entries are compiled *frame-compatible* (no scalar
//	    promotion, no instruction restructuring), so the interpreter frame is
//	    the compiled frame: the transfer is a function call with the same
//	    *Frame, entered at the header block. The activation then finishes in
//	    compiled code; control never transfers back to the interpreter.
//
// The fuel ledger makes the nondeterministic timing safe: compiled code is
// observationally identical to the interpreter (same output, same
// Stats.Steps/Calls, same diagnostics), so it does not matter *when* an
// install or an OSR entry happens — parity holds for every interleaving.
package core

import (
	"sync"
	"sync/atomic"
)

// tierKey identifies one compilation request: a function index plus the OSR
// loop-header block, or header -1 for a function-entry compilation.
type tierKey struct {
	fidx   int
	header int
}

type tierResult struct {
	key tierKey
	fn  CompiledFunc
	// panicked is the value a panicking compile raised on the worker. The
	// engine thread re-raises it at install, so it leaves through the
	// caller's containment boundary exactly as a synchronous compile panic
	// does, instead of killing the process from the worker goroutine.
	panicked any
}

// tierPool is the bounded background compile pool. Lifecycle: NewEngine
// starts the workers when Config.AsyncJIT is set; Engine.Close stops them
// and must be called by whoever owns the engine. Cancellation composes with
// the run governor: a stopped governor makes workers drain their queue
// without compiling, so RunCtx teardown is never blocked behind a compile.
type tierPool struct {
	jobs chan tierKey
	wg   sync.WaitGroup

	mu     sync.Mutex
	done   []tierResult
	closed bool
	// pending is the engine thread's cheap "mailbox non-empty" probe,
	// checked at every dispatch point without taking the mutex.
	pending atomic.Bool
}

// publish posts a finished compilation for the engine thread to install.
// After Close has marked the pool closed, results are dropped: nothing is
// ever installed past engine teardown.
func (p *tierPool) publish(r tierResult) {
	p.mu.Lock()
	if !p.closed {
		p.done = append(p.done, r)
		p.pending.Store(true)
	}
	p.mu.Unlock()
}

// take removes and returns every finished compilation.
func (p *tierPool) take() []tierResult {
	p.mu.Lock()
	rs := p.done
	p.done = nil
	p.pending.Store(false)
	p.mu.Unlock()
	return rs
}

func (p *tierPool) worker(e *Engine) {
	defer p.wg.Done()
	for k := range p.jobs {
		if e.gov.Stopped() {
			// Cancelled run: drain the queue without compiling so Close
			// returns promptly and no new code appears during teardown.
			continue
		}
		p.publish(compileJob(e, k))
	}
}

// compileJob runs one compilation, recovering a compiler panic into the
// result.
func compileJob(e *Engine, k tierKey) (r tierResult) {
	r.key = k
	defer func() {
		if v := recover(); v != nil {
			r.panicked = v
		}
	}()
	if k.header < 0 {
		r.fn = e.cfg.Tier1.Compile(e, k.fidx)
	} else {
		r.fn = e.cfg.Tier1.CompileOSR(e, k.fidx, k.header)
	}
	return r
}

// startPool launches the background compile worker (NewEngine, when
// Config.AsyncJIT is set and a tier-1 compiler is configured). One worker
// suffices: the tier-1 compiler is mutex-serialized anyway.
func (e *Engine) startPool() {
	e.pool = &tierPool{jobs: make(chan tierKey, 64)}
	e.pool.wg.Add(1)
	go e.pool.worker(e)
}

// Close stops the background compile pool: the job queue is closed, every
// worker is joined, and the result mailbox is sealed so a result published
// between the last drain and the join can never be installed. Idempotent.
// Engines created with Config.AsyncJIT must be closed by their owner; an
// engine remains usable afterwards, with synchronous tier-up.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		p := e.pool
		if p == nil {
			return
		}
		close(p.jobs)
		p.wg.Wait()
		p.mu.Lock()
		p.closed = true
		p.done = nil
		p.pending.Store(false)
		p.mu.Unlock()
		e.pool = nil
	})
}

// requestCompile asks for a compilation if the key is not already queued.
// With no pool (synchronous mode, or after Close) it compiles on the engine
// thread and installs the result at once. With a pool it enqueues; a
// saturated queue drops the request — the site stays hot, so the next
// threshold crossing re-requests it. Keys whose compilation bailed (nil
// result) stay marked queued forever: a bail is deterministic, so retrying
// would only burn compile time.
func (e *Engine) requestCompile(k tierKey) {
	if e.queued[k] {
		return
	}
	if e.queued == nil {
		e.queued = make(map[tierKey]bool)
	}
	if e.pool == nil {
		e.queued[k] = true
		e.install(compileJob(e, k))
		return
	}
	select {
	case e.pool.jobs <- k:
		e.queued[k] = true
	default:
	}
}

// installReady is the safe publication point for background compilations:
// it runs on the engine thread, between guest instructions, and installs
// every finished result. Called from invoke and from the back-edge probe.
func (e *Engine) installReady() {
	for _, r := range e.pool.take() {
		if e.install(r) {
			e.stats.AsyncInstalls++
		}
	}
}

// install moves one finished compilation into the dispatch tables,
// re-raising a compile panic, and reports whether it produced code.
func (e *Engine) install(r tierResult) bool {
	if r.panicked != nil {
		panic(r.panicked)
	}
	if r.fn == nil {
		return false // bailed: e.queued[r.key] stays set, never retried
	}
	if r.key.header < 0 {
		if e.compiled[r.key.fidx] == nil {
			e.compiled[r.key.fidx] = r.fn
			e.stats.Tier1Funcs++
			if e.cfg.OnCompile != nil {
				e.cfg.OnCompile(e.mod.Funcs[r.key.fidx].Name)
			}
		}
	} else {
		e.osrEntries[osrKey(r.key.fidx, r.key.header)] = r.fn
		e.stats.OSRCompiled++
	}
	return true
}

// osrKey packs a (function, header) pair for the OSR maps.
func osrKey(fidx, header int) int64 { return int64(fidx)<<20 | int64(header) }

// tryOSR is the interpreter's back-edge probe, called when a backward branch
// in function fr.FnIdx targets header. It installs any finished background
// work, counts the edge, requests an OSR compilation once the edge is hot,
// and returns the installed entry — or nil to keep interpreting. The probe
// charges no fuel: profiling is invisible to the step ledger.
func (e *Engine) tryOSR(fr *Frame, header int) CompiledFunc {
	if e.pool != nil && e.pool.pending.Load() {
		e.installReady()
	}
	k := osrKey(fr.FnIdx, header)
	if cf := e.osrEntries[k]; cf != nil {
		return cf
	}
	n := e.osrCounts[k] + 1
	e.osrCounts[k] = n
	if n >= e.cfg.OSRThreshold {
		e.requestCompile(tierKey{fidx: fr.FnIdx, header: header})
		// A hot back edge is evidence for the whole function, not just
		// the loop: promote it for an optimized entry compilation too,
		// instead of waiting for the next call to test its hotness
		// against the entry threshold. The OSR entry bridges the current
		// activation; this covers the next call.
		if e.compiled[fr.FnIdx] == nil {
			e.requestCompile(tierKey{fidx: fr.FnIdx, header: -1})
		}
	}
	return e.osrEntries[k]
}
