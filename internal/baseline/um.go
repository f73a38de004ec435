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
	// recency[i] is the op index at which tensor i was last accessed;
	// allocation counts as the first access (the producing kernel wrote
	// it).
	recency map[tensor.ID]int
	opIdx   int
	// lru is MakeRoom's candidate scratch, reused across calls.
	lru []int64
}

// NewUM returns the Unified Memory baseline.
func NewUM() *UM { return &UM{recency: make(map[tensor.ID]int)} }

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

// OpStart records recency for LRU eviction.
func (p *UM) OpStart(i int, op *graph.Op) {
	p.opIdx = i
	for _, ac := range op.Accesses {
		p.recency[ac.Tensor] = i
	}
}

// TensorAllocated seeds recency at allocation time so never-reread tensors
// remain evictable.
func (p *UM) TensorAllocated(t *tensor.Tensor, _ alloc.Region) {
	p.recency[t.ID] = p.opIdx
}

// TensorFreed drops recency state.
func (p *UM) TensorFreed(t *tensor.Tensor, _ alloc.Region) {
	delete(p.recency, t.ID)
}

// MakeRoom implements exec.Evictor: least-recently-used tensors move to
// host memory first.
func (p *UM) MakeRoom(rt *exec.Runtime, need int64) int64 {
	// Oldest first, ties broken by tensor id, so eviction order never
	// depends on map iteration order. Each candidate packs into one key,
	// last<<32 | id (ids are non-negative int32s), whose integer order is
	// exactly that total order.
	keys := p.lru[:0]
	for id, last := range p.recency {
		if last >= p.opIdx {
			continue // accessed by the faulting op itself
		}
		if _, ok := rt.Alloc().Region(id); !ok {
			continue
		}
		keys = append(keys, int64(last)<<32|int64(id))
	}
	p.lru = keys
	slices.Sort(keys)
	var freed int64
	for _, key := range keys {
		if freed >= need {
			break
		}
		_, moved, _ := rt.MigrateTensor(tensor.ID(int32(key)), memsys.Slow)
		freed += moved
	}
	return freed
}
