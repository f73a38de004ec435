package baseline

import (
	"slices"

	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/tensor"
)

// UM models CUDA Unified Memory [37]: tensors live wherever, the GPU
// faults non-resident pages in on demand (the engine's residency stalls
// plus the per-fault DemandFaultCost), and a least-recently-used tensor is
// evicted to host memory when device memory fills. There is no profiling
// and no prefetching, so essentially every cold access pays an exposed
// PCIe transfer — the paper's slowest GPU baseline.
type UM struct {
	exec.Base
	rt *exec.Runtime
	// recency[id] is the op index at which tensor id was last accessed,
	// or -1 while it is not live; allocation counts as the first access
	// (the producing kernel wrote it). The op index restarts every step,
	// so a tensor last touched later in the previous step than the
	// faulting op reads as accessed now and is not evicted: a tensor
	// that lives across steps, such as a parameter, is shielded until
	// the step passes that op index again.
	recency []int32
	opIdx   int
	// counts and lru are MakeRoom's scratch, reused across calls.
	counts []int32
	lru    []tensor.ID
}

// NewUM returns the Unified Memory baseline.
func NewUM() *UM { return &UM{} }

// Name identifies the policy.
func (p *UM) Name() string { return "um" }

// AllocConfig places new pages on the device while it has room; UM spills
// transparently to the host otherwise.
func (p *UM) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.Packed,
		Tier: func(t *tensor.Tensor) memsys.Tier {
			if p.rt != nil && p.rt.Kernel().Free(memsys.Fast) >= t.Size {
				return memsys.Fast
			}
			return memsys.Slow
		},
	}
}

// Setup retains the runtime.
func (p *UM) Setup(rt *exec.Runtime) error {
	p.rt = rt
	return nil
}

// touch records op index i as tensor id's last access, growing recency
// to cover id.
func (p *UM) touch(id tensor.ID, i int) {
	for int(id) >= len(p.recency) {
		p.recency = append(p.recency, -1)
	}
	p.recency[id] = int32(i)
}

// OpStart records recency for LRU eviction.
func (p *UM) OpStart(i int, op *graph.Op) {
	p.opIdx = i
	for _, ac := range op.Accesses {
		p.touch(ac.Tensor, i)
	}
}

// TensorAllocated seeds recency at allocation time so never-reread tensors
// remain evictable.
func (p *UM) TensorAllocated(t *tensor.Tensor, _ alloc.Region) {
	p.touch(t.ID, p.opIdx)
}

// TensorFreed drops recency state.
func (p *UM) TensorFreed(t *tensor.Tensor, _ alloc.Region) {
	if int(t.ID) < len(p.recency) {
		p.recency[t.ID] = -1
	}
}

// MakeRoom implements exec.Evictor: least-recently-used tensors move to
// host memory first.
func (p *UM) MakeRoom(rt *exec.Runtime, need int64) int64 {
	return rt.EvictInOrder(p.lruOrder(), need)
}

// lruOrder returns the tensors recorded before the current op, oldest
// access first, ties by ascending tensor id: the order of sorting
// last<<32|id keys. Last accesses lie in [0, opIdx), so one stable
// counting pass over the op index, fed in ascending id, yields it. The
// result is scratch that the next call overwrites.
func (p *UM) lruOrder() []tensor.ID {
	// counts[last+1] tallies op index last; the prefix sum turns
	// counts[last] into its first output slot.
	counts := slices.Grow(p.counts[:0], p.opIdx+1)[:p.opIdx+1]
	clear(counts)
	n := 0
	for _, last := range p.recency {
		if last >= 0 && int(last) < p.opIdx {
			counts[last+1]++
			n++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	out := slices.Grow(p.lru[:0], n)[:n]
	for id, last := range p.recency {
		if last >= 0 && int(last) < p.opIdx {
			out[counts[last]] = tensor.ID(id)
			counts[last]++
		}
	}
	p.counts, p.lru = counts, out
	return out
}
