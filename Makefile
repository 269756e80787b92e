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
# coalescing, the shared libc prefix's immutability and lifecycle) must
# stay race-clean.
race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'Concurrent|Parallel|Matrix|Cache|ForEach|LibcPrefix' ./...

# Hang-regression gate: the governor suite (step limits, wall-clock
# deadlines, context cancellation, tier-1 fuel accounting, timeout matrix
# cells) under the race detector with a tight budget. If any engine stops
# polling the governor, this target times out instead of `make test`.
hangcheck:
	$(GO) test -race -timeout 120s -run 'Governor|Timeout|Deadline|Limit|Tier1|RunCtx|Ungetc|PanicContainment|ForEachPropagates|Degrades' ./...

# Diagnostics gate: the tier-parity sweep (full corpus under Safe Sulong,
# JIT off vs on, rendered diagnostics byte-identical) plus the cross-tool
# heap-blame check, under the race detector — the persistent stacks are
# shared across captured diagnostics and worker goroutines, so this must
# stay race-clean.
diagcheck:
	$(GO) test -race -timeout 120s -run 'TierParity|HeapBlame|Diag' ./...

# Fault-plane gate: the allocation-failure suite (heap budgets, injected
# fault schedules, calloc overflow, glibc realloc semantics, tier parity of
# injected outcomes, oom-cell determinism, retry/quarantine) under the race
# detector, plus the corpus-wide FailNth sweep asserting no engine ever
# panics on an injected allocation failure.
faultcheck:
	$(GO) test -race -timeout 120s -run 'Fault|Calloc|MallocZero|Realloc|HeapBudget|HeapDenial|AllocAuto|NullPlusOffset|OOM|Retry|Quarantin|Sweep' ./...
	$(GO) run ./cmd/bugbench -faultsweep -sweepmax 3

# Peak-performance gate: one benchgame program under every performance
# configuration (native anchors, sanitized engines, each managed tiering
# mode) with zero tolerated bail-outs and the tier-parity step/output sweep
# on the benchmark programs — all under the race detector.
perfcheck:
	$(GO) test -race -timeout 120s -run 'PerfCheck|TierParityBenchmarks|HoistedCheck|CoalescedRun|FramePoolFaultReuse' ./...

# Tiering gate: the asynchronous pipeline under the race detector — the
# full-corpus forced-OSR parity sweep (background compile on first call, OSR
# at the first back edge, speculation on; clean and fault-injected), the
# single-call-loop OSR and exact-instruction deopt pins, and the governor
# cancellation race against an in-flight background compilation (no leaked
# workers, nothing installed after teardown).
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
# crashers through CompileFor, every toolchain view: no compiler panic).
# The campaign package gets its own generous timeout: 200 race-instrumented
# programs × ~10 oracle runs each is real work on a small machine.
fuzzcheck:
	FUZZCHECK_PROGRAMS=200 $(GO) test -race -timeout 600s -run 'Campaign|Journal|Minimize|FuzzFinds|Generate|Mutate|SweepProgress|Backoff' ./internal/campaign ./internal/gen ./internal/corpus ./internal/harness
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'FuzzCompileFor' .

# Compile-once/run-many gate: the full-corpus warm-vs-cold parity pin (a
# code-cache hit on a pooled engine must be observationally identical to a
# cold compile — stdout, exit, Steps, Calls, diagnostics — for tier-0,
# forced tier-1, and async+OSR, clean and fault-injected), the code cache's
# own concurrency suite (singleflight under eviction churn, LRU bound,
# hit-not-mutated, a panicking compile releasing its compiler) and the
# engine pool's — under the race detector, since the code cache and engine
# pool are shared process-wide.
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
