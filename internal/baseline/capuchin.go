package baseline

import (
	"sort"

	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// Capuchin reimplements the Capuchin [9] strategy: dynamic profiling of
// the first training step feeds a per-tensor swap-vs-recompute decision.
// A tensor whose idle gap is long enough to hide the PCIe transfer is
// swapped (evicted after its forward burst, prefetched shortly before
// reuse); a tensor whose transfer cannot be hidden is dropped and
// recomputed at reuse, trading compute for bandwidth. The paper measures
// recomputation at ~11% of Capuchin's step time; Sentinel avoids it
// entirely and additionally dodges page-level false sharing.
type Capuchin struct {
	exec.Base
	// largeSpill's MakeRoom mirrors Capuchin's on-demand swap when the
	// profiled decisions misjudge capacity.
	largeSpill
	rt *exec.Runtime

	profiled bool
	// measured per-layer times from the profiling step.
	layerT []simtime.Duration
	// decisions.
	swapOutAt, swapInAt [][]tensor.ID
	recompute           map[tensor.ID]simtime.Duration
	// recomputeHideFactor: fraction of the swap gap that must cover the
	// transfer for swap to win.
	dropAt [][]tensor.ID
}

// NewCapuchin returns the Capuchin baseline.
func NewCapuchin() *Capuchin {
	return &Capuchin{recompute: make(map[tensor.ID]simtime.Duration)}
}

// Name identifies the policy.
func (p *Capuchin) Name() string { return "capuchin" }

// AllocConfig keeps allocations on the GPU.
func (p *Capuchin) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.Packed,
		Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Fast },
	}
}

// Setup retains the runtime; decisions wait for the profiled step.
func (p *Capuchin) Setup(rt *exec.Runtime) error {
	p.rt = rt
	g := rt.Graph()
	p.swapOutAt = make([][]tensor.ID, g.NumLayers)
	p.swapInAt = make([][]tensor.ID, g.NumLayers)
	p.dropAt = make([][]tensor.ID, g.NumLayers)
	return nil
}

// StepEnd after the first step runs the swap-vs-recompute analysis on the
// measured timings (Capuchin's "memory boost" dynamic profiling).
func (p *Capuchin) StepEnd(step int, st *metrics.StepStats) {
	if p.profiled {
		return
	}
	p.profiled = true
	p.layerT = st.LayerTime
	g := p.rt.Graph()
	spec := p.rt.Spec()

	// Producing-op compute cost per tensor, for recomputation pricing.
	produceCost := make(map[tensor.ID]simtime.Duration)
	for i := range g.Ops {
		cost := simtime.FromSeconds(g.Ops[i].FLOPs / spec.ComputeRate)
		for _, id := range g.Ops[i].Allocs {
			produceCost[id] = cost
		}
	}

	// Layer start offsets on the measured timeline.
	startAt := make([]simtime.Duration, len(p.layerT)+1)
	for l, lt := range p.layerT {
		startAt[l+1] = startAt[l] + lt
	}

	// Candidates in order of when they are needed back; the swap-in
	// channel is a serial resource, so each decision accounts for the
	// transfers already scheduled before it (Capuchin's overlap-aware
	// cost model). When the channel cannot hide the transfer, a tensor
	// whose producing op is cheaper than the transfer is recomputed
	// instead — this is where the paper's ~11% recompute time comes
	// from.
	type cand struct {
		t  *tensor.Tensor
		gp gapSpan
	}
	var cands []cand
	for _, t := range g.Tensors {
		if t.ShortLived() || t.Size < 1<<20 || t.Preallocated {
			continue
		}
		gp := largestGap(t)
		if gp.resume-gp.end < 3 {
			continue
		}
		cands = append(cands, cand{t: t, gp: gp})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gp.resume < cands[j].gp.resume })

	var channelBusy simtime.Duration // swap-in channel cursor on the timeline
	for _, c := range cands {
		t, gp := c.t, c.gp
		transfer := simtime.TransferTime(t.Size, spec.MigrationBW)
		need := startAt[gp.resume]
		earliest := startAt[gp.end+1]
		start := channelBusy
		if earliest > start {
			start = earliest
		}
		if start+transfer <= need {
			// Hidden: schedule the swap, lead chosen to cover the
			// transfer.
			lead := 1
			var cover simtime.Duration
			for l := gp.resume - 1; l > gp.end && cover < transfer; l-- {
				cover += p.layerT[l]
				lead = gp.resume - l
			}
			in := gp.resume - lead
			p.swapOutAt[gp.end] = append(p.swapOutAt[gp.end], t.ID)
			p.swapInAt[in] = append(p.swapInAt[in], t.ID)
			channelBusy = start + transfer
			continue
		}
		// Cannot hide: recompute when the producing op is cheaper than
		// an exposed transfer; otherwise swap anyway and eat the stall.
		if cost, ok := produceCost[t.ID]; ok && cost < transfer {
			p.recompute[t.ID] = cost
			p.dropAt[gp.end] = append(p.dropAt[gp.end], t.ID)
			continue
		}
		p.swapOutAt[gp.end] = append(p.swapOutAt[gp.end], t.ID)
		p.swapInAt[gp.resume-1] = append(p.swapInAt[gp.resume-1], t.ID)
		channelBusy = start + transfer
	}
}

// Recompute implements exec.Recomputer.
func (p *Capuchin) Recompute(t *tensor.Tensor) (simtime.Duration, bool) {
	d, ok := p.recompute[t.ID]
	return d, ok
}

// TensorAllocated places fresh tensors on the GPU.
func (p *Capuchin) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	p.rt.RelocateFresh(r, memsys.Fast)
}

// LayerStart issues scheduled prefetches.
func (p *Capuchin) LayerStart(l int) {
	if !p.profiled {
		return
	}
	for _, id := range p.swapInAt[l] {
		p.rt.MigrateTensor(id, memsys.Fast)
	}
}

// LayerEnd evicts swapped tensors and drops recomputable ones (a drop is
// free: the pages are reassigned to host memory without a transfer, since
// the contents will be regenerated).
func (p *Capuchin) LayerEnd(l int) {
	if !p.profiled {
		return
	}
	for _, id := range p.swapOutAt[l] {
		p.rt.MigrateTensor(id, memsys.Slow)
	}
	for _, id := range p.dropAt[l] {
		if r, ok := p.rt.Alloc().Region(id); ok {
			p.rt.Kernel().Relocate(r.Addr, r.Size, memsys.Slow, p.rt.Now())
		}
	}
}
