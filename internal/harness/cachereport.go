package harness

import (
	sulong "repro"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/pipeline"
)

// CacheReport groups every process-wide cache's effectiveness counters for
// the bench CLIs' machine-readable reports (fuzzbench -json, perfbench
// -json). Each layer's stats type declares its fields in key order, so the
// emitted JSON keys are sorted at every level and reports from different
// runs diff stably against each other.
type CacheReport struct {
	CodeCache   jit.CodeCacheStats   `json:"codeCache"`
	EnginePool  core.EnginePoolStats `json:"enginePool"`
	MachinePool core.PoolStats       `json:"machinePool"`
	Pipeline    pipeline.CacheStats  `json:"pipeline"`
}

// Caches snapshots the pipeline module cache, the executable-code cache,
// and the engine and native machine reuse pools in one report.
func Caches() CacheReport {
	return CacheReport{
		CodeCache:   sulong.CodeCacheStats(),
		EnginePool:  sulong.EnginePoolStats(),
		MachinePool: sulong.MachinePoolStats(),
		Pipeline:    sulong.CacheStats(),
	}
}
