package exec

import (
	"sentinel/internal/alloc"
	"sentinel/internal/graph"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// Policy is a tensor-management strategy driven by engine callbacks.
// Sentinel and every baseline implement this interface; the engine itself
// is strategy-free.
type Policy interface {
	// Name identifies the policy in reports. The runtime reads it after
	// Setup, so it may depend on the machine.
	Name() string
	// AllocConfig returns the allocator configuration the policy wants:
	// packing mode and tier placement for new pages. Called once per run.
	AllocConfig(g *graph.Graph) alloc.Config
	// Setup is called once, after the runtime (kernel, allocator) is
	// built and preallocated tensors are placed, before the first step.
	Setup(rt *Runtime) error
	// StepStart is called at the beginning of each training step.
	StepStart(step int)
	// LayerStart and LayerEnd bracket each DNN layer; LayerEnd
	// corresponds to the add_layer() annotation Sentinel hooks.
	LayerStart(layer int)
	LayerEnd(layer int)
	// OpStart is called after the op's output/scratch tensors are
	// allocated, before the op's time is charged.
	OpStart(i int, op *graph.Op)
	// OpEnd is called after the op's time is charged and its dead
	// tensors freed.
	OpEnd(i int, op *graph.Op)
	// TensorAllocated and TensorFreed observe allocator activity; the
	// freed tensor's (now released) region is passed so policies can
	// reclaim its pages.
	TensorAllocated(t *tensor.Tensor, r alloc.Region)
	TensorFreed(t *tensor.Tensor, r alloc.Region)
	// StepEnd is called with the step's statistics.
	StepEnd(step int, st *metrics.StepStats)
}

// Evictor is an optional Policy extension for GPU-like machines: when a
// demand migration or allocation needs fast-memory space, the engine asks
// the policy to make room before declaring out-of-memory.
type Evictor interface {
	// MakeRoom tries to free at least need bytes of fast memory by
	// migrating pages out. It returns the bytes it managed to release.
	MakeRoom(rt *Runtime, need int64) int64
}

// AccessModeler is an optional Policy extension that overrides page-table
// tier resolution for accesses. Memory Mode (DRAM as a hardware-managed
// cache in front of PMM) uses it to model cache hits and misses.
type AccessModeler interface {
	// ModelAccess splits an access's bytes across tiers and may add
	// extra latency (e.g. cache-fill cost). Called instead of the
	// page-table lookup.
	ModelAccess(t *tensor.Tensor, r alloc.Region, readBytes, writeBytes int64, at simtime.Time) AccessSplit
}

// AccessSplit is the tier decomposition of one access.
type AccessSplit struct {
	FastRead, SlowRead   int64
	FastWrite, SlowWrite int64
	Extra                simtime.Duration
}

// Recomputer is an optional Policy extension (Capuchin): instead of
// requiring a tensor resident, the policy may declare it recomputed, adding
// compute time instead of transfer time.
type Recomputer interface {
	// Recompute reports whether the tensor should be recomputed rather
	// than migrated when accessed non-resident, and the compute cost.
	Recompute(t *tensor.Tensor) (simtime.Duration, bool)
}

// Base is a no-op Policy for embedding; policies override what they need.
type Base struct{}

// AllocConfig returns the default packed/slow configuration.
func (Base) AllocConfig(*graph.Graph) alloc.Config { return alloc.Config{} }

// Setup does nothing.
func (Base) Setup(*Runtime) error { return nil }

// StepStart does nothing.
func (Base) StepStart(int) {}

// LayerStart does nothing.
func (Base) LayerStart(int) {}

// LayerEnd does nothing.
func (Base) LayerEnd(int) {}

// OpStart does nothing.
func (Base) OpStart(int, *graph.Op) {}

// OpEnd does nothing.
func (Base) OpEnd(int, *graph.Op) {}

// TensorAllocated does nothing.
func (Base) TensorAllocated(*tensor.Tensor, alloc.Region) {}

// TensorFreed does nothing.
func (Base) TensorFreed(*tensor.Tensor, alloc.Region) {}

// StepEnd does nothing.
func (Base) StepEnd(int, *metrics.StepStats) {}
