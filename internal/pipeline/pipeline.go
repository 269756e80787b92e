// Package pipeline is the staged compilation pipeline behind the sulong
// facade. It runs the front end as explicit, individually-timed stages
//
//	assemble → preprocess → parse → lower (typecheck/codegen, link) → native-opt → verify
//
// and puts a concurrency-safe, content-addressed module cache in front of
// them. The cache is keyed by (user file-set hash, engine flavor, opt
// level), so a given source compiles exactly once per flavor; every later
// run — including the corpus×engine evaluation matrix fanned out across
// goroutines — is a cache hit that shares the same immutable *ir.Module.
// The bundled libc, which every managed unit includes ahead of the user
// program, is compiled once per cache and hardening into an immutable
// cc.Prefix: each managed compile continues it with user.c alone and links
// against libc's shared functions and globals.
//
// Sharing is sound because no engine mutates a compiled module: the managed
// interpreter materializes globals into its own Objects, the native machine
// copies initializers into flat memory, and the tier-1 JIT clones a
// function before optimizing it. The only mutating consumer is
// internal/opt, which the pipeline runs on a private Clone() of the cached
// front-end module before publishing the per-opt-level result. A -race test
// over the full engine matrix (TestConcurrentRunAllEngines) enforces the
// invariant.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/libc"
	"repro/internal/opt"
)

// Flavor selects the toolchain view of a translation unit — the paper's
// two compilation pipelines (§3.1).
type Flavor int

const (
	// FlavorManaged links the bundled C libc into the unit and wraps it for
	// the managed engine (Safe Sulong's view). OptLevel is ignored: Safe
	// Sulong always executes unoptimized IR.
	FlavorManaged Flavor = iota
	// FlavorNative compiles the user program alone (libc is "precompiled"
	// nlibc) and runs the optimizer at the requested level.
	FlavorNative
)

var flavorNames = [...]string{FlavorManaged: "managed", FlavorNative: "native"}

func (f Flavor) String() string {
	if f < 0 || int(f) >= len(flavorNames) {
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
	return flavorNames[f]
}

// Request describes one translation unit to compile.
type Request struct {
	// Source is the user program (becomes user.c).
	Source string
	// ExtraFiles adds include-able files to the unit. A bundled libc file's
	// name is refused: libc is compiled once, not per program.
	ExtraFiles map[string]string
	Flavor     Flavor
	// OptLevel is the native-side optimization level (0 or 3); ignored for
	// FlavorManaged.
	OptLevel int
	// Hardened compiles the managed libc with __SS_HARDENED: the bulk-write
	// string functions consult _bounds_of and truncate at the destination's
	// end instead of overflowing. Ignored for FlavorNative (its hardening
	// lives in the precompiled nlibc, selected at machine construction).
	// The two builds are two libc prefixes, and the flag is part of the
	// content address, so hardened and plain builds are distinct entries.
	Hardened bool
}

// Key is the content address of a compiled module: the SHA-256 of the
// user's file set (the program plus its ExtraFiles) and of the bundled libc
// it compiles against, plus the engine flavor and opt level.
type Key struct {
	Hash     string
	Flavor   Flavor
	OptLevel int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/O%d", k.Hash[:12], k.Flavor, k.OptLevel)
}

// Stage names, in pipeline order.
const (
	StageAssemble   = "assemble"
	StagePreprocess = "preprocess"
	StageParse      = "parse"
	StageLower      = "lower"
	StageNativeOpt  = "native-opt"
	StageVerify     = "verify"
)

// StageTiming records how long one pipeline stage took.
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// Result is the outcome of a pipeline compile.
type Result struct {
	// Module is the compiled unit. It is shared across all callers that
	// compiled the same Key and MUST be treated as immutable; callers that
	// need to mutate (optimizer experiments, IR surgery) must Clone() it.
	Module *ir.Module
	Key    Key
	// CacheHit reports whether Module came out of the cache without any
	// front-end work.
	CacheHit bool
	// Stages holds per-stage wall-clock timings for the work actually
	// performed (empty on a cache hit). The compile that built the libc
	// prefix lists the prefix's preprocess, parse, lower and verify stages
	// right after its assemble stage.
	Stages []StageTiming
}

// stages times a compile's stages in order.
type stages []StageTiming

func (s *stages) run(stage string, f func() error) error {
	t0 := time.Now()
	err := f()
	*s = append(*s, StageTiming{Stage: stage, Duration: time.Since(t0)})
	return err
}

// ---- stages ----

// userFile is the name the user program is compiled under.
const userFile = "user.c"

// userFiles is the assemble stage: the user's file set, the program as
// user.c plus its ExtraFiles.
func userFiles(req Request) (map[string]string, error) {
	if err := checkExtraFiles(req); err != nil {
		return nil, err
	}
	files := make(map[string]string, len(req.ExtraFiles)+1)
	for name, src := range req.ExtraFiles {
		files[name] = src
	}
	files[userFile] = req.Source
	return files, nil
}

// checkExtraFiles refuses an ExtraFiles entry that would shadow a bundled
// libc file (libc is compiled once, not per program) or replace the program.
func checkExtraFiles(req Request) error {
	for name := range req.ExtraFiles {
		if _, bundled := libc.File(name); bundled {
			return fmt.Errorf("pipeline: ExtraFiles[%q] would shadow the bundled libc file %s", name, name)
		}
		if name == userFile {
			return fmt.Errorf("pipeline: ExtraFiles[%q] would replace the program, which is compiled as %s", name, name)
		}
	}
	return nil
}

// digest is a content address: the SHA-256 sum Fingerprint prints in hex.
type digest [sha256.Size]byte

// address content-addresses req's unit, whose ExtraFiles checkExtraFiles
// accepted: Fingerprint of the user's file set (userFiles) with the unit it
// compiles in — its main file, the bundled libc's digest and, for the
// managed flavor, the hardening — as the main file name. It builds neither
// the file map nor that name, so a cache hit allocates nothing here.
func address(req Request) digest {
	unit := userFile
	if req.Flavor == FlavorManaged {
		unit = libc.UnitFile
		if req.Hardened {
			unit = libc.UnitFile + "+hardened"
		}
	}
	// At most this many ExtraFiles are sorted without allocating.
	const stackNames = 8
	var buf [stackNames + 1]string
	names := append(buf[:0], userFile)
	for name := range req.ExtraFiles {
		names = append(names, name)
	}
	slices.Sort(names)
	return unitDigest([]string{unit, "\x00", libcDigest()}, names, func(name string) string {
		if name == userFile {
			return req.Source
		}
		return req.ExtraFiles[name]
	})
}

// libcDigest content-addresses the bundled libc, once per process.
var libcDigest = sync.OnceValue(func() string { return Fingerprint("libc", libc.Files()) })

// Fingerprint content-addresses a translation unit: SHA-256 over the sorted
// (name, contents) pairs plus the main file name, with length framing so
// concatenation ambiguities cannot collide.
func Fingerprint(mainFile string, files map[string]string) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	d := unitDigest([]string{mainFile}, names, func(name string) string { return files[name] })
	return hex.EncodeToString(d[:])
}

// unitDigest is Fingerprint's SHA-256: the main file name, given as the
// concatenation of mainParts, then each of the sorted names and its
// contents, every string framed by its length. It copies none of them.
func unitDigest(mainParts, names []string, contents func(name string) string) digest {
	h := sha256.New()
	var lenBuf [8]byte
	writeLen := func(n int) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
	}
	n := 0
	for _, part := range mainParts {
		n += len(part)
	}
	writeLen(n)
	for _, part := range mainParts {
		h.Write(bytesOf(part))
	}
	for _, name := range names {
		src := contents(name)
		writeLen(len(name))
		h.Write(bytesOf(name))
		writeLen(len(src))
		h.Write(bytesOf(src))
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// bytesOf views s as bytes without copying it. Only for a hash's Write,
// which reads its argument and keeps none of it.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// NativeOpt is the native-side optimization stage. It mutates mod in place,
// so the cache only ever runs it on a private clone. Level 0 still applies
// the backend constant-global fold the paper caught Clang doing at -O0
// (Fig. 13); level >= 2 runs the full pipeline.
func NativeOpt(mod *ir.Module, optLevel int) {
	if optLevel >= 2 {
		opt.RunO3(mod)
	} else {
		opt.RunO0(mod)
	}
}

// buildPrefix preprocesses, parses, lowers and verifies the bundled libc:
// the managed unit's main file up to the line that includes user.c (the
// paper's Fig. 4 libc.c), frozen as a prefix every managed program
// continues. Its verify stage is Freeze's check of the whole prefix module,
// once, so a program's checks only what the program adds (verifyUnit).
func buildPrefix(hardened bool) (*cc.Prefix, []StageTiming, error) {
	var st stages
	prelude := libc.Prelude(hardened)
	empty, err := cc.NewPrefix(libc.UnitFile, cc.Predefined(nil))
	if err != nil {
		return nil, nil, err
	}
	u := empty.Continue(func(name string) (string, bool) {
		if name == libc.UnitFile {
			return prelude, true
		}
		return libc.File(name)
	})
	if err := st.run(StagePreprocess, func() error { return u.Preprocess(libc.UnitFile) }); err != nil {
		return nil, st, err
	}
	if err := st.run(StageParse, u.Parse); err != nil {
		return nil, st, err
	}
	if err := st.run(StageLower, func() error { _, err := u.Lower(); return err }); err != nil {
		return nil, st, err
	}
	var pre *cc.Prefix
	if err := st.run(StageVerify, func() (err error) {
		pre, err = u.Freeze(strings.Count(prelude, "\n") + 1)
		return err
	}); err != nil {
		return nil, st, err
	}
	return pre, st, nil
}

// nativePrefix is the native flavor's empty prefix: the native toolchain
// compiles user.c alone against libc's headers (its libc is the
// precompiled nlibc).
var nativePrefix = sync.OnceValues(func() (*cc.Prefix, error) {
	return cc.NewPrefix(userFile, cc.Predefined(nil))
})

// compile runs every stage of req against the prefix its unit continues:
// libc's, from libcPrefix, for the managed flavor; the empty one for the
// native flavor. After assemble come the prefix's stages if libcPrefix ran
// them, then user.c's preprocess, parse and lower (which links it against
// the prefix's module), for the native flavor the native optimizer unless
// nativeOpt is false, and verify.
func compile(req Request, libcPrefix func(hardened bool) (*cc.Prefix, []StageTiming, error), nativeOpt bool) (*ir.Module, []StageTiming, error) {
	var (
		st    stages
		files map[string]string
		mod   *ir.Module
	)
	if err := st.run(StageAssemble, func() (err error) { files, err = userFiles(req); return err }); err != nil {
		return nil, st, err
	}
	pre, err := nativePrefix()
	if req.Flavor == FlavorManaged {
		var prefixStages []StageTiming
		pre, prefixStages, err = libcPrefix(req.Hardened)
		st = append(st, prefixStages...)
	}
	if err != nil {
		return nil, st, err
	}
	u := pre.Continue(func(name string) (string, bool) {
		if src, ok := files[name]; ok {
			return src, true
		}
		return libc.File(name)
	})
	if err := st.run(StagePreprocess, func() error { return u.Preprocess(userFile) }); err != nil {
		return nil, st, err
	}
	if err := st.run(StageParse, u.Parse); err != nil {
		return nil, st, err
	}
	if err := st.run(StageLower, func() (err error) { mod, err = u.Lower(); return err }); err != nil {
		return nil, st, err
	}
	if nativeOpt && req.Flavor == FlavorNative {
		_ = st.run(StageNativeOpt, func() error { NativeOpt(mod, req.OptLevel); return nil })
	}
	if err := st.run(StageVerify, func() error { return verifyUnit(mod, pre) }); err != nil {
		return nil, st, err
	}
	return mod, st, nil
}

// verifyUnit is a program's verify stage. It checks the functions the
// program added to its prefix's module or replaced in it: the prefix's own
// were verified when it was frozen, and verify the same in every module
// linking them (ir.VerifyExtension).
func verifyUnit(mod *ir.Module, pre *cc.Prefix) error {
	if err := ir.VerifyExtension(mod, pre.Module); err != nil {
		return fmt.Errorf("pipeline: generated invalid IR: %w", err)
	}
	return nil
}

// CompileUncached runs every stage for req with no cache interaction, the
// managed flavor's libc prefix included, and returns a module the caller
// owns exclusively.
func CompileUncached(req Request) (*ir.Module, []StageTiming, error) {
	return compile(req, buildPrefix, true)
}

// ---- cache ----

// CacheStats is a snapshot of cache effectiveness counters.
// Fields are in key order, so the JSON form diffs stably between reports.
type CacheStats struct {
	Entries int `json:"entries"`
	// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
	HitRate float64 `json:"hitRate"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
}

// cell is one value built once: the caller that creates it runs the build
// and fills it, and every other caller waits on ready.
type cell[T any] struct {
	ready chan struct{} // closed when val/err are final
	val   T
	err   error
	// stages records the work done by the goroutine that filled the cell.
	stages []StageTiming
}

// entry is a cached module under its key.
type entry struct {
	cell[*ir.Module]
	key Key
}

// slot is a cache map's key: a Key with its hash as the digest, which a
// lookup computes without printing it.
type slot struct {
	sum      digest
	flavor   Flavor
	optLevel int
}

// key is s as a Key.
func (s slot) key() Key {
	return Key{Hash: hex.EncodeToString(s.sum[:]), Flavor: s.flavor, OptLevel: s.optLevel}
}

// Cache is a concurrency-safe, content-addressed module cache. Concurrent
// requests for the same Key are coalesced: one goroutine compiles, the rest
// block on the entry and then share the resulting module. It keeps only
// modules that compiled: a failed compile's waiters get its error, and the
// next compile of the same source misses and compiles again.
//
// Internally it holds two maps: front-end entries keyed by (hash, flavor)
// — the expensive preprocess/parse/lower work, shared by every opt level —
// and published modules keyed by the full (hash, flavor, opt level). Beside
// them it keeps the managed flavor's libc prefix, one per hardening, built
// by the first managed miss that needs it (concurrent misses wait for that
// one build). The prefixes are not entries: the counters never see them,
// Release keeps them, and Reset drops them.
type Cache struct {
	mu       sync.Mutex
	frontend map[slot]*entry // optLevel fixed to frontendLevel
	modules  map[slot]*entry
	prefixes [2]*cell[*cc.Prefix] // indexed by Request.Hardened
	// buildPrefix builds a libc prefix: the package's buildPrefix, which
	// tests replace.
	buildPrefix func(hardened bool) (*cc.Prefix, []StageTiming, error)

	hits   atomic.Uint64
	misses atomic.Uint64
}

// frontendLevel marks front-end (pre-opt) cache entries.
const frontendLevel = -1

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{frontend: map[slot]*entry{}, modules: map[slot]*entry{}, buildPrefix: buildPrefix}
}

// Default is the process-wide cache the sulong facade compiles through.
var Default = NewCache()

// normalizeKey canonicalizes a request's cache coordinates so equivalent
// requests land on the same entry.
func normalizeKey(req Request, sum digest) slot {
	k := slot{sum: sum, flavor: req.Flavor, optLevel: req.OptLevel}
	if req.Flavor == FlavorManaged {
		k.optLevel = 0 // Safe Sulong always runs unoptimized IR
	} else if k.optLevel >= 2 {
		k.optLevel = 3
	} else {
		k.optLevel = 0
	}
	return k
}

// lookup finds or creates an entry in m. It reports whether the caller must
// fill the entry.
func (c *Cache) lookup(m map[slot]*entry, k slot) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := m[k]; ok {
		return e, false
	}
	e := &entry{cell: cell[*ir.Module]{ready: make(chan struct{})}, key: k.key()}
	m[k] = e
	return e, true
}

// fill runs build into e and wakes e's waiters. The cache keeps no failure:
// when build fails, forget (run under c.mu) removes e before the waiters
// wake, so they get the error and a later compile builds again. A build
// that panics fills e with the panic as a *core.InternalError, and the
// panic goes on once the waiters are awake.
func fill[T any](c *Cache, e *cell[T], forget func(), build func() (T, []StageTiming, error)) {
	defer func() {
		if r := recover(); r != nil {
			e.err = &core.InternalError{Panic: r, Stack: string(debug.Stack())}
			defer panic(r)
		}
		if e.err != nil {
			c.mu.Lock()
			forget()
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	e.val, e.stages, e.err = build()
}

// prefix returns the libc prefix for a managed request, building it if no
// compile has since the last Reset or the last failed build. Only the
// building call gets the prefix's stage timings.
func (c *Cache) prefix(hardened bool) (*cc.Prefix, []StageTiming, error) {
	i := 0
	if hardened {
		i = 1
	}
	c.mu.Lock()
	e := c.prefixes[i]
	build := e == nil
	if build {
		e = &cell[*cc.Prefix]{ready: make(chan struct{})}
		c.prefixes[i] = e
	}
	c.mu.Unlock()
	if !build {
		<-e.ready
		return e.val, nil, e.err
	}
	fill(c, e, func() { c.prefixes[i] = nil }, func() (*cc.Prefix, []StageTiming, error) { return c.buildPrefix(hardened) })
	return e.val, e.stages, e.err
}

// frontendModule returns the shared post-lower (pre-opt) module for req,
// compiling it at most once per (hash, flavor).
func (c *Cache) frontendModule(req Request, sum digest) (*entry, error) {
	fk := slot{sum: sum, flavor: req.Flavor, optLevel: frontendLevel}
	e, fillIt := c.lookup(c.frontend, fk)
	if fillIt {
		fill(c, &e.cell, func() { delete(c.frontend, fk) }, func() (*ir.Module, []StageTiming, error) { return compile(req, c.prefix, false) })
	}
	<-e.ready
	return e, e.err
}

// Compile resolves req through the cache. On a hit the returned Result
// shares the cached module (immutable by contract); on a miss exactly one
// goroutine runs the missing stages while concurrent requests for the same
// key wait and then count as hits of the freshly published entry.
func (c *Cache) Compile(req Request) (*Result, error) {
	// Small enough to inline, so a caller that keeps only the module does
	// not allocate the Result.
	res, err := c.resolve(req)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// resolve is Compile's lookup and build.
func (c *Cache) resolve(req Request) (Result, error) {
	if err := checkExtraFiles(req); err != nil {
		return Result{}, err
	}
	k := normalizeKey(req, address(req))

	e, fillIt := c.lookup(c.modules, k)
	if !fillIt {
		<-e.ready
		if e.err != nil {
			return Result{}, e.err
		}
		c.hits.Add(1)
		return Result{Module: e.val, Key: e.key, CacheHit: true}, nil
	}

	c.misses.Add(1)
	fill(c, &e.cell, func() { c.drop(k) }, func() (*ir.Module, []StageTiming, error) { return c.build(req, k) })
	if e.err != nil {
		return Result{}, e.err
	}
	return Result{Module: e.val, Key: e.key, Stages: e.stages}, nil
}

// build runs the stages a miss needs: the (possibly cached) front end,
// then — for optimized native flavors — a clone + native-opt + verify.
func (c *Cache) build(req Request, k slot) (*ir.Module, []StageTiming, error) {
	fe, err := c.frontendModule(req, k.sum)
	if err != nil {
		return nil, nil, err
	}
	stages := append([]StageTiming(nil), fe.stages...)
	if req.Flavor == FlavorManaged {
		// The front-end module is the final artifact.
		return fe.val, stages, nil
	}
	// Native flavor at a concrete opt level: optimize a private clone so the
	// shared front-end module stays pristine.
	t0 := time.Now()
	mod := fe.val.Clone()
	NativeOpt(mod, k.optLevel)
	stages = append(stages, StageTiming{Stage: StageNativeOpt, Duration: time.Since(t0)})
	t0 = time.Now()
	if verr := ir.Verify(mod); verr != nil {
		return nil, stages, fmt.Errorf("pipeline: optimizer produced invalid IR: %w", verr)
	}
	stages = append(stages, StageTiming{Stage: StageVerify, Duration: time.Since(t0)})
	return mod, stages, nil
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.modules) + len(c.frontend)
	c.mu.Unlock()
	s := CacheStats{Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// Release drops every published entry whose module is mod. Drivers that
// retire a module for good (programs run only once) call it so one-shot
// programs do not accumulate in the cache; a subsequent Compile of the same
// source simply misses and recompiles. Entries still being filled are left
// alone — releasing mid-flight would race the fill, and the filling
// goroutine's waiters need the entry to resolve. The libc prefixes stay.
func (c *Cache) Release(mod *ir.Module) {
	if mod == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.modules {
		select {
		case <-e.ready:
			if e.val == mod {
				c.drop(k)
			}
		default:
		}
	}
}

// drop removes the module entry at k and the front-end entry behind it,
// once that is filled: a native-flavor module is built from a clone of the
// front end's, so the front-end entry is found by key, not by module.
// Callers hold c.mu.
func (c *Cache) drop(k slot) {
	delete(c.modules, k)
	fk := slot{sum: k.sum, flavor: k.flavor, optLevel: frontendLevel}
	if fe, ok := c.frontend[fk]; ok {
		select {
		case <-fe.ready:
			delete(c.frontend, fk)
		default:
		}
	}
}

// Reset drops every entry and the libc prefixes and zeroes the counters
// (tests and cold-start benchmarks): the next managed compile builds libc
// again, as the first one of a process does.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.frontend = map[slot]*entry{}
	c.modules = map[slot]*entry{}
	c.prefixes = [2]*cell[*cc.Prefix]{}
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Compile resolves req through the process-wide Default cache.
func Compile(req Request) (*Result, error) {
	res, err := Default.resolve(req)
	if err != nil {
		return nil, err
	}
	return &res, nil
}
