package core

import (
	"sync"

	"repro/internal/ir"
)

// Pool parks finished execution objects — managed engines, native machines —
// for reuse by later runs of the module they were built for. Building one
// repeats work that is a pure function of the module (binding the builtin
// table, laying out and initializing every global) and allocates buffers
// that outlive the run (pages, shadow memory, I/O buffers), so a driver that
// runs one module many times — the detection matrix, the FailNth sweep,
// tier-parity triples — resets a parked object instead. Objects are keyed by
// their module and a sub-key S (struct{} when the module alone decides), at
// most limit per key.
//
// Parked objects belong to their module: Release drops them all, and a
// module's first Get registers it, so an object Put after its module was
// released (or the pool Reset) is dropped, not parked. The pool therefore
// retains nothing the module cache does not retain, and needs no global
// bound.
//
// Get falls back to building on an empty key or a failed reset, so a pool is
// never less correct than cold construction, only faster; the warm-vs-cold
// parity suites pin that the two are byte-identical.
type Pool[S comparable, T any] struct {
	mu    sync.Mutex
	idle  map[*ir.Module]map[S][]T
	limit int

	hits   uint64
	misses uint64
}

// NewPool returns a pool retaining at most perKey idle objects per (module,
// sub-key) (0 means a small default).
func NewPool[S comparable, T any](perKey int) *Pool[S, T] {
	if perKey <= 0 {
		perKey = 4
	}
	return &Pool[S, T]{idle: make(map[*ir.Module]map[S][]T), limit: perKey}
}

// Get returns an object for (mod, sub): the most recently parked one when
// reset readies it (a hit), otherwise build's (a miss). An object reset
// rejects is dropped; reset must dispose of it.
func (p *Pool[S, T]) Get(mod *ir.Module, sub S, reset func(T) error, build func() (T, error)) (T, error) {
	p.mu.Lock()
	subs := p.idle[mod]
	if subs == nil {
		subs = make(map[S][]T)
		p.idle[mod] = subs
	}
	var v T
	q := subs[sub]
	parked := len(q) > 0
	if parked {
		var zero T
		v, q[len(q)-1] = q[len(q)-1], zero
		subs[sub] = q[:len(q)-1]
	}
	p.mu.Unlock()
	if parked && reset(v) == nil {
		p.mu.Lock()
		p.hits++
		p.mu.Unlock()
		return v, nil
	}
	p.mu.Lock()
	p.misses++
	p.mu.Unlock()
	return build()
}

// Put parks a finished object under (mod, sub) and reports whether it did.
// The caller has read everything it needs from v and no goroutine still
// references it. v is dropped for the collector when the key is full or mod
// is not registered (released, or the pool reset, since its Get).
func (p *Pool[S, T]) Put(mod *ir.Module, sub S, v T) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	subs := p.idle[mod]
	if subs == nil || len(subs[sub]) >= p.limit {
		return false
	}
	subs[sub] = append(subs[sub], v)
	return true
}

// Release drops every object parked for mod and unregisters it. Drivers
// that retire a module for good — harness.RunOnce after a one-shot
// program's last run — call it so dead objects do not pin their buffers.
// Objects currently checked out are dropped when they are Put.
func (p *Pool[S, T]) Release(mod *ir.Module) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.idle, mod)
}

// PoolStats is a point-in-time snapshot of pool effectiveness. Fields are
// in key order, so the JSON form diffs stably between reports.
type PoolStats struct {
	Hits   uint64 `json:"hits"`
	Idle   int    `json:"idle"`
	Misses uint64 `json:"misses"`
}

// Stats returns the pool's hit/miss counters and current idle population.
func (p *Pool[S, T]) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, subs := range p.idle {
		for _, q := range subs {
			idle += len(q)
		}
	}
	return PoolStats{Hits: p.hits, Misses: p.misses, Idle: idle}
}

// Reset empties the pool, unregisters every module and zeroes the counters
// (cold-start benchmarking).
func (p *Pool[S, T]) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = make(map[*ir.Module]map[S][]T)
	p.hits, p.misses = 0, 0
}

// EnginePool is the Pool of managed engines, keyed by module alone.
type EnginePool struct {
	pool *Pool[struct{}, *Engine]
}

// EnginePoolStats is the engine pool's PoolStats.
type EnginePoolStats = PoolStats

// NewEnginePool returns a pool retaining at most perModule idle engines per
// module (0 means a small default).
func NewEnginePool(perModule int) *EnginePool {
	return &EnginePool{pool: NewPool[struct{}, *Engine](perModule)}
}

// Get returns an engine for mod configured per cfg: a pooled engine reset
// in place when one is idle, otherwise a newly constructed one. A Reset
// failure discards the stale engine and retries cold, so callers see
// exactly NewEngine's error behavior.
func (p *EnginePool) Get(mod *ir.Module, cfg Config) (*Engine, error) {
	return p.pool.Get(mod, struct{}{}, func(e *Engine) error {
		err := e.Reset(cfg)
		if err != nil {
			e.Close() // half-reset engines are unusable
		}
		return err
	}, func() (*Engine, error) { return NewEngine(mod, cfg) })
}

// Put closes a finished engine (stopping any background compile pool) and
// parks it (Pool.Put).
func (p *EnginePool) Put(e *Engine) {
	if e == nil {
		return
	}
	e.Close()
	p.pool.Put(e.mod, struct{}{}, e)
}

// Release drops every idle engine parked for mod (Pool.Release).
func (p *EnginePool) Release(mod *ir.Module) { p.pool.Release(mod) }

// Stats returns the pool's hit/miss counters and current idle population.
func (p *EnginePool) Stats() EnginePoolStats { return p.pool.Stats() }

// Reset empties the pool and zeroes its counters (cold-start benchmarking).
func (p *EnginePool) Reset() { p.pool.Reset() }
