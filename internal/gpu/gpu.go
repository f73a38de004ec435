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
	"sentinel/internal/graph"
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
func New() *SentinelGPU { return NewWithConfig(core.DefaultConfig()) }

// NewWithConfig returns Sentinel-GPU with an ablation config (Fig. 13).
// The core skips test-and-trial on GPU-like machines whatever the config
// says.
func NewWithConfig(cfg core.Config) *SentinelGPU {
	return &SentinelGPU{Sentinel: core.New(cfg)}
}

// Name identifies the policy.
func (s *SentinelGPU) Name() string { return "sentinel-gpu" }

// Setup prepares the one-time synchronization of the preallocated
// tensors, which are double-buffered during profiling: the pinned copy is
// profiled, the device copy is synchronized once afterwards.
func (s *SentinelGPU) Setup(rt *exec.Runtime) error {
	s.rt = rt
	var prealloc int64
	for _, id := range rt.Graph().Prealloc {
		prealloc += rt.Graph().T(id).Size
	}
	s.syncCost = simtime.TransferTime(prealloc, rt.Spec().MigrationBW)
	return s.Sentinel.Setup(rt)
}

// StepStart starts the step as the core does and enables pinned host
// access whenever the core begins a profiling step: tensors live in pinned
// host memory, the GPU reads them over the interconnect, and every access
// faults on the CPU where Sentinel counts it. That holds for step 0 and
// for a dataflow variant first seen later in training.
func (s *SentinelGPU) StepStart(step int) {
	s.Sentinel.StepStart(step)
	if s.Profiling() {
		s.rt.SetPinnedAccess(true)
	}
}

// StepEnd finishes the step as the core does. After a profiling step it
// reverts from pinned memory to device allocation; after step 0 it also
// charges the one-time copy synchronization.
func (s *SentinelGPU) StepEnd(step int, st *metrics.StepStats) {
	profiled := s.Profiling()
	s.Sentinel.StepEnd(step, st)
	if profiled {
		s.rt.SetPinnedAccess(false)
	}
	if step == 0 {
		s.rt.WaitUntil(s.rt.Now().Add(s.syncCost))
	}
}

// MaxBatch finds the largest batch size up to limit (probing limit, then
// bisecting below it) at which the model trains two steps under the
// policy without running out of GPU memory. It is Lockstep's one-policy
// case, with the probes run one after another.
func MaxBatch(modelName string, spec memsys.Spec, factory func() exec.Policy, limit int) (int, error) {
	build := func(batch int) (*graph.Graph, error) { return model.Build(modelName, batch) }
	maxes, err := Lockstep(build, spec, []func() exec.Policy{factory}, limit, sequential)
	if err != nil {
		return 0, err
	}
	return maxes[0], nil
}

// Probe is one trial of a lockstep round: search Search tries Batch.
type Probe struct{ Search, Batch int }

// RoundRunner runs one lockstep round: fit(i) trials probes[i]. It
// returns the verdicts in probe order and may run the probes
// concurrently, since they only read the round's graphs.
type RoundRunner func(probes []Probe, fit func(i int) (bool, error)) ([]bool, error)

// Lockstep runs one max-batch search per policy factory and advances them
// round by round. Each round builds the graph of every distinct batch the
// searches want next once, runs all of the round's probes on those shared
// graphs through run, and drops the graphs when the round ends. Every
// search makes the probes it would make alone, in the same order. It
// returns each search's largest fitting batch, 0 when batch 1 does not
// fit; a limit <= 0 means 1<<14.
func Lockstep(build model.BuildFunc, spec memsys.Spec, factories []func() exec.Policy, limit int, run RoundRunner) ([]int, error) {
	if limit <= 0 {
		limit = 1 << 14
	}
	searches := make([]search, len(factories))
	for {
		var probes []Probe
		graphs := map[int]*graph.Graph{}
		for i := range searches {
			batch, ok := searches[i].next(limit)
			if !ok {
				continue
			}
			if graphs[batch] == nil {
				g, err := build(batch)
				if err != nil {
					return nil, err
				}
				graphs[batch] = g
			}
			probes = append(probes, Probe{Search: i, Batch: batch})
		}
		if len(probes) == 0 {
			break
		}
		verdicts, err := run(probes, func(i int) (bool, error) {
			p := probes[i]
			return fits(graphs[p.Batch], spec, factories[p.Search]())
		})
		if err != nil {
			return nil, err
		}
		for i, p := range probes {
			searches[p.Search].record(p.Batch, verdicts[i])
		}
	}
	maxes := make([]int, len(searches))
	for i, s := range searches {
		maxes[i] = s.lo
	}
	return maxes, nil
}

// search is one top-down max-batch search as a state machine: next names
// the batch to probe, record takes its verdict. It probes limit first and,
// when limit does not fit, bisects between the largest batch that fit and
// the smallest that did not. Like any bisection it assumes that fitting is
// monotone in batch; most of its probes are then quick out-of-memory
// failures rather than full training steps far below the answer.
type search struct {
	lo int // largest batch known to fit; 0 until one does
	hi int // smallest batch known not to fit; 0 until one does not
}

// next returns the batch to probe next, or false when the search is done.
func (s *search) next(limit int) (int, bool) {
	if s.lo == 0 && s.hi == 0 {
		return limit, true
	}
	if s.hi-s.lo > 1 {
		return (s.lo + s.hi) / 2, true
	}
	return 0, false
}

// record takes the verdict of probing batch.
func (s *search) record(batch int, ok bool) {
	if ok {
		s.lo = batch
	} else {
		s.hi = batch
	}
}

// sequential is the RoundRunner that runs a round's probes in order on
// the calling goroutine.
func sequential(probes []Probe, fit func(i int) (bool, error)) ([]bool, error) {
	verdicts := make([]bool, len(probes))
	for i := range probes {
		ok, err := fit(i)
		if err != nil {
			return nil, err
		}
		verdicts[i] = ok
	}
	return verdicts, nil
}

// fits reports whether two training steps of g run under policy p
// without running out of memory. Any other failure is an error.
func fits(g *graph.Graph, spec memsys.Spec, p exec.Policy) (bool, error) {
	rt, err := exec.NewRuntime(g, spec, p)
	if err == nil {
		_, err = rt.RunSteps(2)
	}
	if errors.Is(err, exec.ErrOOM) {
		return false, nil
	}
	return err == nil, err
}
