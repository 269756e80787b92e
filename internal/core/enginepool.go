package core

import (
	"sync"

	"repro/internal/ir"
)

// EnginePool recycles finished engines keyed by the module they execute.
// Constructing an engine repeats work that is a pure function of the module
// — binding the builtin table, laying out and initializing every global in
// the linked libc image — so drivers that run one module many times (the
// FailNth sweep, tier-parity triples) pay that layout once and Reset
// thereafter. Get falls back to NewEngine on an empty pool or a failed
// Reset, so a pool is never less correct than cold construction, only
// faster; the warm-vs-cold parity suite pins that the two are
// byte-identical.
type EnginePool struct {
	mu    sync.Mutex
	idle  map[*ir.Module][]*Engine
	order []*Engine // park order across all modules, oldest first
	limit int       // max idle engines retained per module

	hits   uint64
	misses uint64
}

// globalIdleFactor bounds the pool's total idle population at
// globalIdleFactor × the per-module limit, evicting the oldest parked
// engine first. Without the global bound a campaign of unique modules
// (every generated program is its own *ir.Module, never run again) would
// park an engine — and pin its guest heap — per program, and the growing
// live set turns the pool from a cache into a leak: GC scan time eats more
// than engine reuse saves.
const globalIdleFactor = 4

// NewEnginePool returns a pool retaining at most perModule idle engines per
// module (0 means a small default) and globalIdleFactor× that many in total.
func NewEnginePool(perModule int) *EnginePool {
	if perModule <= 0 {
		perModule = 4
	}
	return &EnginePool{idle: make(map[*ir.Module][]*Engine), limit: perModule}
}

// Get returns an engine for mod configured per cfg: a pooled engine reset
// in place when one is idle, otherwise a newly constructed one. A Reset
// failure discards the stale engine and retries cold, so callers see
// exactly NewEngine's error behavior.
func (p *EnginePool) Get(mod *ir.Module, cfg Config) (*Engine, error) {
	p.mu.Lock()
	var e *Engine
	if q := p.idle[mod]; len(q) > 0 {
		e = q[len(q)-1]
		q[len(q)-1] = nil
		p.idle[mod] = q[:len(q)-1]
		p.unorder(e)
	}
	p.mu.Unlock()
	if e != nil {
		if err := e.Reset(cfg); err == nil {
			p.mu.Lock()
			p.hits++
			p.mu.Unlock()
			return e, nil
		}
		// Half-reset engines are unusable; drop and construct cold.
		e.Close()
	}
	p.mu.Lock()
	p.misses++
	p.mu.Unlock()
	return NewEngine(mod, cfg)
}

// Put returns a finished engine to the pool. The engine must be done: the
// caller has read everything it needs (output, stats, leaks, diagnostics)
// and no goroutine still references it. Put closes the engine (stopping any
// background compile pool) before parking it; over-limit engines are simply
// dropped for the collector.
func (p *EnginePool) Put(e *Engine) {
	if e == nil {
		return
	}
	e.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[e.mod]
	if len(q) >= p.limit {
		return
	}
	p.idle[e.mod] = append(q, e)
	p.order = append(p.order, e)
	if len(p.order) > globalIdleFactor*p.limit {
		victim := p.order[0]
		p.order[0] = nil
		p.order = p.order[1:]
		vq := p.idle[victim.mod]
		for i, cand := range vq {
			if cand == victim {
				copy(vq[i:], vq[i+1:])
				vq[len(vq)-1] = nil
				vq = vq[:len(vq)-1]
				break
			}
		}
		if len(vq) == 0 {
			delete(p.idle, victim.mod)
		} else {
			p.idle[victim.mod] = vq
		}
	}
}

// Release drops every idle engine parked for mod. Drivers that retire a
// module for good — the fuzzing-campaign judge, which never runs a generated
// program again after its verdict — call it so dead engines (and the guest
// heaps they pin) do not ride the pool until global eviction reaches them.
// Engines currently checked out are unaffected; they are simply not re-parked
// usefully, and the global bound reclaims them.
func (p *EnginePool) Release(mod *ir.Module) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[mod]
	if q == nil {
		return
	}
	delete(p.idle, mod)
	for _, e := range q {
		p.unorder(e)
	}
}

// unorder removes e from the park-order queue (caller holds p.mu).
func (p *EnginePool) unorder(e *Engine) {
	for i, cand := range p.order {
		if cand == e {
			copy(p.order[i:], p.order[i+1:])
			p.order[len(p.order)-1] = nil
			p.order = p.order[:len(p.order)-1]
			return
		}
	}
}

// EnginePoolStats is a point-in-time snapshot of pool effectiveness.
// Fields are in key order, so the JSON form diffs stably between reports.
type EnginePoolStats struct {
	Hits   uint64 `json:"hits"`
	Idle   int    `json:"idle"`
	Misses uint64 `json:"misses"`
}

// Stats returns the pool's hit/miss counters and current idle population.
func (p *EnginePool) Stats() EnginePoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, q := range p.idle {
		idle += len(q)
	}
	return EnginePoolStats{Hits: p.hits, Misses: p.misses, Idle: idle}
}

// Reset empties the pool and zeroes its counters (cold-start benchmarking).
func (p *EnginePool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = make(map[*ir.Module][]*Engine)
	p.order = nil
	p.hits, p.misses = 0, 0
}
