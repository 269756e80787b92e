#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, binary,
# campaign journals, trace files) stays under .bench_build/ at the root of
# the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Return freed heap to the system lazily. All workloads run many programs in
# one long-lived process; with the default eager release every program
# re-faults the memory the previous one freed, which a one-process-per-run
# `sulong prog.c` never does, and the page-fault cost made cold-run
# throughput swing by a fifth between runs on a 2-vCPU VM.
export GODEBUG=madvdontneed=0

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -workdir "$out" "$@"
