// Package fault is the deterministic fault-injection and resource-accounting
// plane shared by every execution engine (the managed interpreter, the tier-1
// compiled code, and the simulated native machine with its tools).
//
// It answers two questions the engines previously could not:
//
//  1. "May this guest allocation proceed?" — charging every malloc / calloc /
//     realloc / alloca / global against a per-run heap budget, and failing
//     the n-th (or seeded-random) heap allocation on purpose so the guest's
//     own error paths (`if (!p) ...`) are actually exercised. A denied heap
//     allocation is *soft*: guest malloc returns NULL, which is C-correct, so
//     programs that check the result keep running. A denied stack or global
//     allocation is *hard*: C has no way to report it, so the engine surfaces
//     a structured resource error and the harness classifies the run "oom".
//
//  2. "How much guest memory is in use?" — exact byte accounting (in-use,
//     peak, cumulative) that is identical between the tier-0 interpreter and
//     tier-1 compiled code, because both tiers allocate through the same
//     engine entry points.
//
// Everything here is deterministic: the schedule depends only on Plan and the
// sequence of guest allocation requests, never on wall-clock time, host
// memory pressure, or goroutine scheduling. An Injector is per-run state and
// is not safe for concurrent use; each engine instance owns exactly one.
package fault

import (
	"fmt"
	"strings"
)

// Plan is a deterministic allocation-failure schedule. The zero Plan injects
// nothing. Schedules count *heap* allocations only (malloc/calloc/realloc),
// not stack or global charges: heap requests are issued by the guest program
// itself, so their sequence is identical in the tier-0 interpreter and under
// the tier-1 compiler (whose scalar promotion may elide allocas), which is
// what makes injected outcomes tier-portable.
type Plan struct {
	// Seed seeds the deterministic PRNG behind FailProb. Two runs with the
	// same Seed and the same guest allocation sequence fail identically.
	Seed int64
	// FailNth fails the n-th guest heap allocation (1-based). 0 disables.
	FailNth int64
	// FailAfterBytes fails every heap allocation once the cumulative
	// *requested* bytes (successful or not) exceed this. 0 disables.
	FailAfterBytes int64
	// FailProb fails each heap allocation independently with this
	// probability, drawn from the seeded PRNG. 0 disables.
	FailProb float64
}

// Enabled reports whether the plan injects any failures.
func (p Plan) Enabled() bool {
	return p.FailNth > 0 || p.FailAfterBytes > 0 || p.FailProb > 0
}

// String renders the plan compactly for reports ("failnth=3 seed=7").
func (p Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	var parts []string
	if p.FailNth > 0 {
		parts = append(parts, fmt.Sprintf("failnth=%d", p.FailNth))
	}
	if p.FailAfterBytes > 0 {
		parts = append(parts, fmt.Sprintf("failafter=%dB", p.FailAfterBytes))
	}
	if p.FailProb > 0 {
		parts = append(parts, fmt.Sprintf("failprob=%g seed=%d", p.FailProb, p.Seed))
	}
	return strings.Join(parts, " ")
}

// Budget bounds guest memory. The zero Budget imposes no cumulative bound
// and leaves the single-allocation cap to the engine's default.
type Budget struct {
	// MaxHeapBytes bounds the cumulative *live* guest bytes (heap in-use
	// plus stack and global charges). 0 = unlimited.
	MaxHeapBytes int64
	// MaxAllocBytes bounds a single allocation request. 0 = engine default.
	MaxAllocBytes int64
}

// Outcome classifies one allocation decision.
type Outcome int

const (
	// OK: the allocation proceeds; its bytes are charged until released.
	OK Outcome = iota
	// Null: the allocation must fail softly — guest malloc returns NULL.
	// Raised for injected faults, over-cap single requests, and heap-budget
	// exhaustion. C-correct: programs that check malloc keep running.
	Null
	// Exhausted: a stack or global allocation exceeded the budget. C cannot
	// express this as a return value; the engine must surface a hard
	// *core.ResourceError and the harness classifies the run "oom".
	Exhausted
)

var outcomeNames = [...]string{OK: "ok", Null: "null", Exhausted: "exhausted"}

func (o Outcome) String() string {
	if o < 0 || int(o) >= len(outcomeNames) {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// Stats is the injector's exact byte/event accounting. All fields are
// tier-invariant for heap traffic: tier-0 and tier-1 runs of the same
// program report identical values (stack charges additionally match under
// jit.DisableMem2Reg, since scalar promotion legitimately elides allocas).
type Stats struct {
	// HeapAllocs counts successful guest heap allocations; HeapAttempts
	// counts all requests (including denied ones — the FailNth coordinate).
	HeapAllocs   int64
	HeapAttempts int64
	// HeapAllocBytes is the cumulative bytes of successful heap allocations;
	// HeapInUseBytes the live (not yet freed) heap bytes; HeapPeakBytes the
	// high-water mark of all live charges (heap + stack + global).
	HeapAllocBytes int64
	HeapInUseBytes int64
	HeapPeakBytes  int64
	// InjectedFaults counts allocations denied by the Plan; DeniedAllocs
	// counts every soft denial (injected, over-cap, or over-budget).
	InjectedFaults int64
	DeniedAllocs   int64
}

// Injector is the per-run accounting and injection state. The nil *Injector
// is valid and means "no plan, no budget": every charge succeeds and costs
// one branch, so engines keep a single code path (mirroring *core.Governor).
type Injector struct {
	plan     Plan
	maxHeap  int64
	maxAlloc int64

	rng uint64 // splitmix64 state, seeded from Plan.Seed

	attempts  int64 // heap allocation requests seen (the FailNth coordinate)
	requested int64 // cumulative requested heap bytes (FailAfterBytes)

	heapInUse  int64 // live heap bytes
	fixedInUse int64 // live stack/global bytes
	peak       int64 // high-water mark of heapInUse+fixedInUse

	st Stats
}

// NewInjector builds an injector for one run. maxAlloc semantics: requests
// above Budget.MaxAllocBytes fail softly; pass 0 to leave single requests
// uncapped (engines substitute their historical default before calling).
func NewInjector(plan Plan, b Budget) *Injector {
	j := new(Injector)
	j.Reset(plan, b)
	return j
}

// Reset makes j, in place, the injector NewInjector(plan, b) builds: an
// engine keeps one injector and resets it for each run.
func (j *Injector) Reset(plan Plan, b Budget) {
	*j = Injector{
		plan:     plan,
		maxHeap:  b.MaxHeapBytes,
		maxAlloc: b.MaxAllocBytes,
		rng:      splitmixSeed(uint64(plan.Seed)),
	}
}

// Active reports whether the injector can ever deny an allocation. Engines
// may use it to skip bookkeeping they only need under a plan or budget; the
// accounting itself is cheap enough to stay on unconditionally.
func (j *Injector) Active() bool {
	return j != nil && (j.plan.Enabled() || j.maxHeap > 0 || j.maxAlloc > 0)
}

// ChargeHeap decides the fate of one guest heap allocation (malloc, calloc,
// realloc) of size bytes. On OK the bytes are charged until Release. Soft
// denials return Null: the engine's malloc returns the C NULL pointer.
func (j *Injector) ChargeHeap(size int64) Outcome {
	if j == nil {
		return OK
	}
	j.attempts++
	j.st.HeapAttempts = j.attempts
	if size < 0 {
		j.st.DeniedAllocs++
		return Null
	}
	j.requested += size
	if j.injects(size) {
		j.st.InjectedFaults++
		j.st.DeniedAllocs++
		return Null
	}
	if j.maxAlloc > 0 && size > j.maxAlloc {
		j.st.DeniedAllocs++
		return Null
	}
	if j.maxHeap > 0 && j.heapInUse+j.fixedInUse+size > j.maxHeap {
		j.st.DeniedAllocs++
		return Null
	}
	j.heapInUse += size
	j.st.HeapAllocs++
	j.st.HeapAllocBytes += size
	j.st.HeapInUseBytes = j.heapInUse
	j.bumpPeak()
	return OK
}

// injects applies the plan to the current (already-counted) attempt.
func (j *Injector) injects(size int64) bool {
	hit := false
	if j.plan.FailNth > 0 && j.attempts == j.plan.FailNth {
		hit = true
	}
	if j.plan.FailAfterBytes > 0 && j.requested > j.plan.FailAfterBytes {
		hit = true
	}
	if j.plan.FailProb > 0 {
		// Always draw, so the random schedule depends only on the attempt
		// index — composable with FailNth without perturbing the stream.
		r := j.next()
		if float64(r>>11)/(1<<53) < j.plan.FailProb {
			hit = true
		}
	}
	return hit
}

// Release returns freed heap bytes to the budget (free, realloc's retired
// block). Sizes are the same values that were charged, so in-use accounting
// is exact; over-release is clamped defensively.
func (j *Injector) Release(size int64) {
	if j == nil || size <= 0 {
		return
	}
	j.heapInUse -= size
	if j.heapInUse < 0 {
		j.heapInUse = 0
	}
	j.st.HeapInUseBytes = j.heapInUse
}

// ChargeFixed charges stack or global bytes — allocations C cannot report
// as NULL. Over-budget requests return Exhausted (hard); the plan never
// fires here (schedules target heap allocations only).
func (j *Injector) ChargeFixed(size int64) Outcome {
	if j == nil || size <= 0 {
		return OK
	}
	if j.maxHeap > 0 && j.heapInUse+j.fixedInUse+size > j.maxHeap {
		return Exhausted
	}
	j.fixedInUse += size
	j.bumpPeak()
	return OK
}

// ReleaseFixed returns stack bytes when a frame pops. Global charges live
// for the whole run and are never released.
func (j *Injector) ReleaseFixed(size int64) {
	if j == nil || size <= 0 {
		return
	}
	j.fixedInUse -= size
	if j.fixedInUse < 0 {
		j.fixedInUse = 0
	}
}

func (j *Injector) bumpPeak() {
	if total := j.heapInUse + j.fixedInUse; total > j.peak {
		j.peak = total
		j.st.HeapPeakBytes = total
	}
}

// Stats snapshots the accounting counters. Valid on the nil injector.
func (j *Injector) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	return j.st
}

// HeapInUse returns the live charged heap bytes.
func (j *Injector) HeapInUse() int64 {
	if j == nil {
		return 0
	}
	return j.heapInUse
}

// Limit returns the configured cumulative budget (0 = unlimited).
func (j *Injector) Limit() int64 {
	if j == nil {
		return 0
	}
	return j.maxHeap
}

// splitmix64: a tiny, well-distributed PRNG. Deterministic across platforms
// and Go versions (unlike math/rand's unspecified stream), which the
// byte-identical-render guarantee needs.
func splitmixSeed(s uint64) uint64 { return s + 0x9e3779b97f4a7c15 }

func (j *Injector) next() uint64 {
	j.rng += 0x9e3779b97f4a7c15
	z := j.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
