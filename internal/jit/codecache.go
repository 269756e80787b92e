// The process-wide executable-code cache: compile once, run many.
//
// Every driver in this repository re-runs the same module under many
// configurations — the detection matrix, the FailNth sweep, tier-parity
// triples, perfbench sample loops, fuzzing-campaign oracles — and until now
// each run re-lowered the identical IR from scratch. The content-addressed
// pipeline cache (PR 1) de-duplicated the *front end*; this cache does the
// same for the *back end*, in the compile-once/specialize-per-run tradition
// of HotSpot-style tiered VMs.
//
// What makes sharing sound is that tier-1 closures are pure functions of
// (module, JIT configuration): operands resolve to module indices at compile
// time and to engine objects at run time (GlobalAt), and all per-run
// mutable state — argument buffers, inline-cache entries — lives in the
// engine's call-site table, addressed by compile-time site IDs (Engine.Site).
// A cached closure therefore executes identically on any engine running the
// same module.
//
// OSR entries are cached too, one plain lowering per function, shared by
// every engine: the lowering does not depend on the loop header (CompileOSR
// only picks the entry block), and the function's loop-header set is cached
// beside it.
//
// Units are keyed by module identity, not content: the pipeline cache hands
// every run of one program the same shared module object, and every driver
// runs and then releases that object, so the pointer is the key the traffic
// uses — the same one the module cache and the engine pool release by. Two
// distinct module objects with equal content (an uncached compile, a file
// parsed twice) get separate units.
//
// Sharing rule: libc is compiled once per process, not once per program.
// A linked program extends the libc prefix module (ir.Module.Extend), so it
// holds the prefix's *ir.Func and *ir.Global pointers at the prefix's
// indices. When it replaced none of them (checked once per module, by
// pointer), a request for fidx < len(prefix.Funcs) goes to one unit rooted
// at the prefix, shared by every such program: the function, its inlined
// callees, its IsBuiltin answers and every global and function index it
// resolves are then the prefix's. A program that defines its own copy of a
// prefix function libc calls replaces that slot, so all of its functions
// stay in its own unit. ReleaseModule of a program leaves the prefix unit
// alone; Reset drops it.
//
// Site-ID domains: a program unit hands out site IDs 0, 1, 2, ... and a
// prefix unit -1, -2, -3, ...; Engine.Site keeps one table per domain, so
// one engine running both kinds of code never gives two sites one cell.
//
// Counter parity: each compilation records its counter delta (unitMeta)
// next to the closure, and a cache hit replays the delta into the running
// compiler — so JITReport (Compiled, InstrsTotal, Inlined, Bailed) is
// byte-identical whether the code was compiled in this run or reused, which
// the warm-vs-cold parity suite pins. Bailed compilations are cached as nil
// closures (negative caching): a warm run re-bails instantly with the same
// recorded reason. A bailed shared OSR lowering replays its bail the same
// way. Hits and misses count entry compilations only.
package jit

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ir"
)

// siteAlloc hands out dense call-site IDs for one compilation domain (one
// cache unit, or one uncached compiler): 0, 1, 2, ... or, for a prefix
// unit, -1, -2, -3, ... It has its own lock because a unit's allocator is
// shared by every compiler filling that unit.
type siteAlloc struct {
	mu   sync.Mutex
	next int
	neg  bool
}

func (a *siteAlloc) alloc() int {
	a.mu.Lock()
	id := a.next
	a.next++
	a.mu.Unlock()
	if a.neg {
		return -id - 1
	}
	return id
}

// Fingerprint identifies a JIT configuration whose compilations are
// interchangeable. Two compilers with equal fingerprints produce the same
// closures for the same module, so they may share a cache unit.
type Fingerprint struct {
	DisableMem2Reg bool
}

func (c *Compiler) fingerprint() Fingerprint {
	return Fingerprint{DisableMem2Reg: c.DisableMem2Reg}
}

// cacheKey addresses one unit: the module's identity plus the config
// fingerprint, and whether the unit serves the module as a prefix of others
// (its site IDs are then negative). A unit pins its module until it is
// evicted or released, so the LRU bound also caps how many modules the
// cache keeps alive.
type cacheKey struct {
	mod    *ir.Module
	fp     Fingerprint
	prefix bool
}

// funcEntry is one function's compiled artifact inside a unit. ready closes
// when fn/meta are published; concurrent compilers of the same function
// coalesce on it (singleflight), so each function lowers at most once per
// unit lifetime.
type funcEntry struct {
	ready chan struct{}
	fn    core.CompiledFunc // nil: the compilation bailed (negative cache)
	meta  unitMeta
}

// osrEntry is one function's plain lowering inside a unit, published like a
// funcEntry. headers marks the blocks that head a single-header loop (nil if
// the lowering panicked); blocks is the lowering, nil when it bailed for
// bailMsg.
type osrEntry struct {
	ready   chan struct{}
	headers []bool
	blocks  []block
	bailMsg string
}

// unit is every compiled function of one (module, fingerprint) pair, plus
// the site-ID allocator those functions' closures were compiled against.
// Units are immutable-once-published: entries are only ever added, and a
// published closure is never replaced — a cache hit cannot observe mutation.
type unit struct {
	key   cacheKey
	sites *siteAlloc
	// shared is the prefix module whose functions this program unit leaves
	// to the prefix's unit (sharedPrefix), or nil.
	shared *ir.Module

	mu    sync.Mutex
	funcs map[int]*funcEntry
	osr   map[int]*osrEntry

	elem *list.Element // position in CodeCache.lru
}

// CodeCache is a size-bounded LRU of compiled-code units shared by every
// engine in the process. Eviction is by unit (a module/config pair), not by
// function: engines still holding closures from an evicted unit keep
// running them — eviction only unpins the unit for the collector once those
// engines retire.
type CodeCache struct {
	mu    sync.Mutex
	cap   int
	units map[cacheKey]*unit
	lru   *list.List // front = most recently used; element values are *unit

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewCodeCache returns a cache bounded to capUnits module/config units
// (0 means a default sized for the matrix drivers).
func NewCodeCache(capUnits int) *CodeCache {
	if capUnits <= 0 {
		capUnits = 256
	}
	return &CodeCache{cap: capUnits, units: make(map[cacheKey]*unit), lru: list.New()}
}

// unitFor returns (creating if needed) the unit that compiles function fidx
// of m under fp: the unit of m's libc prefix when m shares it and fidx is
// one of its functions, else m's own. It updates recency and evicts
// over-capacity units.
func (cc *CodeCache) unitFor(m *ir.Module, fp Fingerprint, fidx int) *unit {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	u := cc.lookup(cacheKey{mod: m, fp: fp})
	if u.shared != nil && fidx < len(u.shared.Funcs) {
		u = cc.lookup(cacheKey{mod: u.shared, fp: fp, prefix: true})
	}
	for cc.lru.Len() > cc.cap {
		ev := cc.lru.Remove(cc.lru.Back()).(*unit)
		delete(cc.units, ev.key)
		cc.evictions.Add(1)
	}
	return u
}

// lookup returns (creating if needed) the unit for key and marks it most
// recently used. Callers hold cc.mu.
func (cc *CodeCache) lookup(key cacheKey) *unit {
	if u, ok := cc.units[key]; ok {
		cc.lru.MoveToFront(u.elem)
		return u
	}
	u := &unit{key: key, sites: &siteAlloc{neg: key.prefix},
		funcs: make(map[int]*funcEntry), osr: make(map[int]*osrEntry)}
	if !key.prefix {
		u.shared = sharedPrefix(key.mod)
	}
	u.elem = cc.lru.PushFront(u)
	cc.units[key] = u
	return u
}

// sharedPrefix returns the module m extends when m still holds every one of
// its functions and globals, the same pointers at the same indices — then
// compiled code of those functions is the same in m as in the prefix — or
// nil when m extends nothing or replaced a slot.
func sharedPrefix(m *ir.Module) *ir.Module {
	b := m.Base()
	if b == nil || len(b.Funcs) == 0 || len(m.Funcs) < len(b.Funcs) || len(m.Globals) < len(b.Globals) {
		return nil
	}
	for i, f := range b.Funcs {
		if m.Funcs[i] != f {
			return nil
		}
	}
	for i, g := range b.Globals {
		if m.Globals[i] != g {
			return nil
		}
	}
	return b
}

// compile serves one Compile request through the cache: a hit replays the
// recorded counter delta and returns the shared closure; a miss compiles
// under the unit's site allocator, publishes, and wakes coalesced waiters.
func (cc *CodeCache) compile(c *Compiler, e *core.Engine, fidx int) core.CompiledFunc {
	u := cc.unitFor(e.Module(), c.fingerprint(), fidx)
	u.mu.Lock()
	if fe, ok := u.funcs[fidx]; ok {
		u.mu.Unlock()
		<-fe.ready
		cc.hits.Add(1)
		c.mu.Lock()
		c.apply(fe.meta)
		c.mu.Unlock()
		return fe.fn
	}
	fe := &funcEntry{ready: make(chan struct{})}
	u.funcs[fidx] = fe
	u.mu.Unlock()
	cc.misses.Add(1)

	// Publish and unlock even if the compile panics (the facade contains
	// the panic as an InternalError): waiters then see a nil closure and
	// stay in the interpreter instead of blocking forever, and the next
	// compile on c — a background worker survives the panic — can proceed.
	published := false
	defer func() {
		if !published {
			close(fe.ready)
		}
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.sites = u.sites
	fn, meta := c.compileFn(e, fidx)
	c.apply(meta)

	fe.fn, fe.meta = fn, meta
	published = true
	close(fe.ready)
	return fn
}

// compileOSR serves one CompileOSR request through the cache. The first
// request for a function of a unit computes its loop-header set and its
// lowering; every later one only picks the entry block.
func (cc *CodeCache) compileOSR(c *Compiler, e *core.Engine, fidx, header int) core.CompiledFunc {
	u := cc.unitFor(e.Module(), c.fingerprint(), fidx)
	u.mu.Lock()
	oe, ok := u.osr[fidx]
	if !ok {
		oe = &osrEntry{ready: make(chan struct{})}
		u.osr[fidx] = oe
	}
	u.mu.Unlock()
	if ok {
		<-oe.ready
	} else {
		cc.lowerOSREntry(c, e, u, e.Module().Funcs[fidx], oe)
	}

	if oe.headers == nil || !oe.headers[header] {
		return nil
	}
	if oe.blocks == nil {
		c.mu.Lock()
		c.stats.bail(oe.bailMsg)
		c.mu.Unlock()
		return nil
	}
	return enterAt(oe.blocks, header)
}

// lowerOSREntry fills and publishes a new osrEntry. A panicking lowering
// still publishes (with no headers), so waiters keep interpreting.
func (cc *CodeCache) lowerOSREntry(c *Compiler, e *core.Engine, u *unit, f *ir.Func, oe *osrEntry) {
	defer close(oe.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sites = u.sites
	blocks, err := c.lowerOSR(e, f)
	if err != nil {
		oe.bailMsg = fmt.Sprintf("%s: %v", f.Name, err)
	}
	oe.blocks = blocks
	oe.headers = loopHeaders(f)
}

// ReleaseModule evicts every unit compiled from m, across all config
// fingerprints. Drivers that retire a module for good call it so a churn
// workload — a fuzzing campaign compiles one fresh module per generated
// program and never revisits it — does not fill the LRU with dead code that
// only GC scan time pays for. Engines still holding closures from a released
// unit keep running them; release is an eviction, not an invalidation.
func (cc *CodeCache) ReleaseModule(m *ir.Module) {
	cc.mu.Lock()
	for key, u := range cc.units {
		if key.mod == m {
			cc.lru.Remove(u.elem)
			delete(cc.units, key)
			cc.evictions.Add(1)
		}
	}
	cc.mu.Unlock()
}

// CodeCacheStats is a point-in-time snapshot of cache effectiveness.
// Fields are in key order, so the JSON form diffs stably between reports.
type CodeCacheStats struct {
	Evictions uint64 `json:"evictions"`
	Funcs     int    `json:"funcs"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Units     int    `json:"units"`
}

// Stats returns hit/miss/eviction counters and the current population.
func (cc *CodeCache) Stats() CodeCacheStats {
	cc.mu.Lock()
	units := len(cc.units)
	funcs := 0
	for _, u := range cc.units {
		u.mu.Lock()
		funcs += len(u.funcs)
		u.mu.Unlock()
	}
	cc.mu.Unlock()
	return CodeCacheStats{
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Evictions: cc.evictions.Load(),
		Units:     units,
		Funcs:     funcs,
	}
}

// Reset empties the cache and zeroes its counters (cold-start benchmarking).
func (cc *CodeCache) Reset() {
	cc.mu.Lock()
	cc.units = make(map[cacheKey]*unit)
	cc.lru = list.New()
	cc.hits.Store(0)
	cc.misses.Store(0)
	cc.evictions.Store(0)
	cc.mu.Unlock()
}
