# Tier-1 gate: everything a change must pass before it lands.
# `make check` runs every gate below except `bench`.
#
# Every test invocation carries an explicit -timeout: the repository's own
# subject matter is non-terminating guest programs, so the gate must fail
# fast (with goroutine dumps) if a hang regression ever escapes the
# execution governor, instead of idling until Go's default 10m.

GO ?= go
TEST_TIMEOUT ?= 300s

.PHONY: check fmt vet build test race hangcheck diagcheck faultcheck perfcheck tiercheck typecheck fuzzcheck throughputcheck benchcheck bench clean

check: fmt vet build test race hangcheck diagcheck faultcheck perfcheck tiercheck typecheck fuzzcheck throughputcheck benchcheck

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

# The concurrency suite (shared-module audit, parallel matrix, cache
# coalescing, the shared libc prefix's immutability and lifecycle, the
# front-end golden's two goroutines continuing one prefix) must stay
# race-clean.
race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'Concurrent|Parallel|Matrix|Cache|ForEach|LibcPrefix|FrontEndGolden' ./...

# Hang-regression gate: the governor suite (step limits, wall-clock
# deadlines, context cancellation, tier-1 fuel accounting, timeout matrix
# cells) under the race detector with a tight budget. If any engine stops
# polling the governor, this target times out instead of `make test`.
hangcheck:
	$(GO) test -race -timeout 120s -run 'Governor|Timeout|Deadline|Limit|Tier1|RunCtx|Ungetc|PanicContainment|ForEachPropagates|Degrades' ./...

# Diagnostics gate: the tier-parity table's tier-1 slices (corpus rows in
# tier-1, clean and under FailNth 1 and 2, every cache state, each cell's
# Outcome equal to tier-0's: Steps, Calls, heap counters, stdout and every
# rendered diagnostic) and its benchmark, heap-schedule and indirect-call
# rows in every tier, plus the cross-tool heap-blame check, under the race
# detector — the persistent stacks are shared across captured diagnostics
# and worker goroutines, so this must stay race-clean.
diagcheck:
	$(GO) test -race -timeout 120s -run 'TierParity|HeapBlame|Diag' ./...

# Fault-plane gate: the allocation-failure suite (heap budgets, injected
# fault schedules, calloc overflow, glibc realloc semantics, oom-cell
# determinism, quarantine) under the race detector, with the
# tier-parity table's fault rows (the heap-schedule row under its six
# plans, the hoisted-check and coalesced-run rows — a fault at the exact
# loop iteration and at the exact field — and the corpus's async+OSR
# FailNth slices),
# plus the corpus-wide FailNth sweep asserting no engine ever panics on an
# injected allocation failure and every tier's Outcome equals tier-0's.
faultcheck:
	$(GO) test -race -timeout 120s -run 'Fault|Calloc|MallocZero|Realloc|HeapBudget|HeapDenial|AllocAuto|NullPlusOffset|OOM|Quarantin|Sweep' ./...
	$(GO) run ./cmd/bugbench -faultsweep -sweepmax 3

# Peak-performance gate: one benchgame program under every performance
# configuration (native anchors, sanitized engines, each managed tiering
# mode) with zero tolerated bail-outs, the tier-parity table's benchmark
# rows and its tier-2 legality rows (a fault at the exact iteration and at
# the exact field, use-after-free blame among gep+access pairs) in every
# tier, plan and cache state,
# frame-pool reuse after a fault, the native machine's golden digest
# (every corpus case under every native column and plan, the benchmark
# programs at their peak sizes, and step-limit windows: stdout, exit,
# Steps, reports, leaks and heap counters byte-identical), and a managed
# guest call allocating nothing in any tier — all under the race detector.
perfcheck:
	$(GO) test -race -timeout 120s -run 'PerfCheck|TierParityBenchmarks|HoistedCheck|CoalescedRun|UnderCoalescing|FramePoolFaultReuse|NativeGolden|ManagedCall' ./...

# Tiering gate: the asynchronous pipeline under the race detector — the
# tier-parity table's async+OSR slices (corpus rows with background compile
# on first call, OSR at the first back edge; clean and under FailNth 1 and
# 2, every cache state), its single-call-loop and pointer-cell-loop rows in
# every tier with their OSR-only pins (main entered through OSR first; OSR
# entered over pointer-carrying cells, never a transfer back to tier-0),
# and the governor cancellation race against an in-flight background
# compilation (no leaked workers, nothing installed after teardown).
tiercheck:
	$(GO) test -race -timeout 120s -run 'TierCheck|AsyncCompile|AsyncClose' ./...

# Type-identity gate: the type-confusion corpus sweep (managed engines
# detect union punning / bad casts / vararg mismatches with alloc-site
# backtraces while ASan and memcheck stay silent), introspection-builtin
# parity across all four engines (clean and under an injected allocation
# failure, tier-0 vs forced async+OSR), the hardened-libc truncation
# check on both toolchains, and the typed-IR round trip — under the race
# detector, since the descriptor caches are shared across matrix workers.
typecheck:
	$(GO) test -race -timeout 120s -run 'TypeConfusion|Introspection|Hardened|TypedIR|Union' ./...

# Fuzzing-campaign gate: a fixed-seed 200-program differential campaign
# under the race detector — tier parity (tier-0 vs forced tier-1 vs
# async+OSR), FailNth 1..2 fault-schedule parity, cross-tool blind spots,
# every finding auto-minimized and re-verified — plus the campaign's own
# resilience suite: resume byte-identity after cancellation and after a
# real kill -9, worker panic storms with zero leaked goroutines, journal
# torn-tail recovery, the committed fuzz-find regressions, and the
# front end's fuzz seeds (corpus and benchmark sources plus committed
# crashers through CompileFor, every toolchain view: no compiler panic) and
# the textual IR's (printed corpus and benchmark modules: Parse never
# panics, and what parses prints to a fixpoint; every benchmark's whole
# module, libc included, printed, re-parsed and run against the tier-parity
# table's reference).
# The campaign package gets its own generous timeout: 200 race-instrumented
# programs × ~10 oracle runs each is real work on a small machine.
fuzzcheck:
	FUZZCHECK_PROGRAMS=200 $(GO) test -race -timeout 600s -run 'Campaign|Journal|Minimize|FuzzFinds|Generate|Mutate|SweepProgress' ./internal/campaign ./internal/gen ./internal/corpus ./internal/harness
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'FuzzCompileFor|IRRoundTrip' .

# Compile-once/run-many gate: the tier-parity table's corpus rows in every
# tier, plan and cache state (a warm run and a code-cache hit on a pooled
# engine must equal a cold compile at tier-0 in every observable
# Outcome.Diff compares), the code cache's own concurrency suite
# (singleflight under eviction churn, LRU bound, hit-not-mutated, a
# panicking compile releasing its compiler) and the engine pool's — under
# the race detector, since the code cache and engine pool are shared
# process-wide.
throughputcheck:
	$(GO) test -race -timeout 300s -run 'WarmColdCacheParity|CodeCache|EnginePool' . ./internal/jit ./internal/core

# Benchmark-module gate: bench/ is its own module built against this one's
# internal packages, so `./...` above never compiles it. Vet and test it
# here, so an internal API change that breaks the benchmark fails the gate.
benchcheck:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -timeout $(TEST_TIMEOUT) ./...

bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
