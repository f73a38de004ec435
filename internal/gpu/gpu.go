// Package gpu adapts Sentinel to GPU-based heterogeneous memory (Sec. V):
// GPU global memory is the fast tier, host memory the slow tier. The
// profiling step runs over customized pinned memory — the GPU reads
// host-resident pages in place while the CPU-side fault handler counts
// accesses — then training reverts to device allocation, paying a one-time
// synchronization of the double-buffered preallocated tensors. Case 3 has
// no test-and-trial on GPU: execution must wait for residency, which the
// engine's per-op stalls provide.
//
// The package also hosts the maximum-batch-size search of Table V.
package gpu

import (
	"errors"

	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/simtime"
)

// SentinelGPU wraps the Sentinel core with the GPU profiling protocol.
type SentinelGPU struct {
	*core.Sentinel
	rt *exec.Runtime
	// syncCost is the one-time double-copy synchronization charged after
	// profiling (Sec. V).
	syncCost simtime.Duration
}

// New returns Sentinel-GPU with full features (no test-and-trial — the
// engine's residency stalls are the GPU's Case-3 handling).
func New() *SentinelGPU {
	cfg := core.DefaultConfig()
	cfg.TestAndTrial = false
	return &SentinelGPU{Sentinel: core.New(cfg)}
}

// NewWithConfig returns Sentinel-GPU with an ablation config (Fig. 13).
func NewWithConfig(cfg core.Config) *SentinelGPU {
	cfg.TestAndTrial = false
	return &SentinelGPU{Sentinel: core.New(cfg)}
}

// Name identifies the policy.
func (s *SentinelGPU) Name() string { return "sentinel-gpu" }

// Setup enables pinned host access for the profiling step: tensors live in
// pinned host memory, the GPU reads them over the interconnect, and every
// access faults on the CPU where Sentinel counts it.
func (s *SentinelGPU) Setup(rt *exec.Runtime) error {
	s.rt = rt
	rt.SetPinnedAccess(true)
	// Preallocated tensors are double-buffered during profiling: the
	// pinned copy is profiled, the device copy is synchronized once
	// afterwards.
	var prealloc int64
	for _, id := range rt.Graph().Prealloc {
		prealloc += rt.Graph().T(id).Size
	}
	s.syncCost = simtime.TransferTime(prealloc, rt.Spec().MigrationBW)
	return s.Sentinel.Setup(rt)
}

// StepEnd finishes the profiling phase as the core does, then reverts from
// pinned memory to device allocation and charges the one-time copy
// synchronization.
func (s *SentinelGPU) StepEnd(step int, st *metrics.StepStats) {
	s.Sentinel.StepEnd(step, st)
	if step == 0 {
		s.rt.SetPinnedAccess(false)
		s.rt.WaitUntil(s.rt.Now().Add(s.syncCost))
	}
}

// MaxBatch finds the largest batch size (by doubling then bisecting) at
// which the model trains two steps under the policy without running out of
// GPU memory.
func MaxBatch(modelName string, spec memsys.Spec, factory func() exec.Policy, limit int) (int, error) {
	fits := func(batch int) (bool, error) {
		g, err := model.Build(modelName, batch)
		if err != nil {
			return false, err
		}
		rt, err := exec.NewRuntime(g, spec, factory())
		if err != nil {
			if errors.Is(err, exec.ErrOOM) {
				return false, nil
			}
			return false, err
		}
		if _, err := rt.RunSteps(2); err != nil {
			if errors.Is(err, exec.ErrOOM) {
				return false, nil
			}
			return false, err
		}
		return true, nil
	}
	if limit <= 0 {
		limit = 1 << 14
	}
	ok, err := fits(1)
	if err != nil || !ok {
		return 0, err
	}
	lo := 1
	hi := 2
	for hi <= limit {
		ok, err := fits(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
	}
	if hi > limit {
		return lo, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
