package baseline

import (
	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/ga"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// staticLayerTimes estimates per-layer execution time from op FLOPs — the
// compile-time view SwapAdvisor's and AutoTM's planners work from.
func staticLayerTimes(g *graph.Graph, spec memsys.Spec) []simtime.Duration {
	times := make([]simtime.Duration, g.NumLayers)
	for i := range g.Ops {
		times[g.Ops[i].Layer] += simtime.FromSeconds(g.Ops[i].FLOPs / spec.ComputeRate)
	}
	return times
}

// swapCandidate is a tensor SwapAdvisor may schedule out and back.
type swapCandidate struct {
	id          tensor.ID
	size        int64
	end, resume int // idle-gap boundaries in layers
}

// swapCandidates finds long-lived tensors with an idle gap worth swapping
// across.
func swapCandidates(g *graph.Graph, minSize int64) []swapCandidate {
	var out []swapCandidate
	for _, t := range g.Tensors {
		if t.ShortLived() || t.Size < minSize {
			continue
		}
		gp := largestGap(t)
		if gp.resume-gp.end < 3 {
			continue
		}
		out = append(out, swapCandidate{id: t.ID, size: t.Size, end: gp.end, resume: gp.resume})
	}
	return out
}

// SwapAdvisor reimplements the SwapAdvisor [8] strategy: a genetic
// algorithm searches the joint space of swap selection and prefetch
// timing, scored by an analytic cost model built from static layer times.
// The search has no layer-structure awareness — prefetch leads are free
// genes — so part of the transfer time stays exposed (the paper measures
// 81% more exposed migration than Sentinel), and the GA decision itself is
// expensive (tens of minutes on real systems; the paper notes it may not
// converge for BERT-class models within 30 minutes).
type SwapAdvisor struct {
	exec.Base
	rt    *exec.Runtime
	cands []swapCandidate
	// evict lists the candidates' ids in candidate order: MakeRoom's
	// standing order.
	evict []tensor.ID
	// genes[i]: 0 = stay resident; 1..maxLead = swap out after the
	// forward burst and prefetch that many layers before reuse.
	genes ga.Genome
	// cost is the GA's fitness of genes.
	cost float64
	// schedules by layer.
	outAt, inAt [][]tensor.ID
	// SearchCost is the simulated wall-clock the GA decision took; it is
	// reported, not charged to steady-state steps (the paper discusses it
	// as deployment overhead).
	SearchCost simtime.Duration
}

const saMaxLead = 4

// NewSwapAdvisor returns the SwapAdvisor baseline.
func NewSwapAdvisor() *SwapAdvisor { return &SwapAdvisor{} }

// Name identifies the policy.
func (p *SwapAdvisor) Name() string { return "swapadvisor" }

// AllocConfig keeps allocations on the GPU; the GA schedule creates room.
func (p *SwapAdvisor) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.Packed,
		Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Fast },
	}
}

// Setup runs the GA search and freezes the swap schedule.
func (p *SwapAdvisor) Setup(rt *exec.Runtime) error {
	p.rt = rt
	g := rt.Graph()
	spec := rt.Spec()
	p.cands = swapCandidates(g, 1<<20)
	sc := newSwapScorer(g, spec, p.cands)

	domain := make([]int, len(p.cands))
	for i := range domain {
		domain[i] = saMaxLead + 1
	}
	evals := 0
	cost := func(gen ga.Genome) float64 {
		evals++
		return sc.score(gen)
	}
	cfg := ga.DefaultConfig()
	best, bestCost := ga.Minimize(domain, cost, cfg)
	p.genes, p.cost = best, bestCost
	// Each evaluation of the real SwapAdvisor runs a simulated schedule;
	// model the decision latency it reports (~tens of minutes scaled to
	// evaluation count).
	p.SearchCost = simtime.Duration(evals) * 10 * simtime.Millisecond

	p.outAt = make([][]tensor.ID, g.NumLayers)
	p.inAt = make([][]tensor.ID, g.NumLayers)
	p.evict = make([]tensor.ID, len(p.cands))
	for i, c := range p.cands {
		p.evict[i] = c.id
		lead := best[i]
		if lead == 0 {
			continue
		}
		in := c.resume - lead
		if in <= c.end {
			in = c.end + 1
		}
		p.outAt[c.end] = append(p.outAt[c.end], c.id)
		p.inAt[in] = append(p.inAt[in], c.id)
	}
	return nil
}

// swapScorer is the GA fitness: exposed transfer time plus capacity
// violation penalties, from static layer times only. Everything that does
// not depend on the genome is computed once, so an evaluation costs O(1)
// per swapped candidate plus one pass over the layers.
type swapScorer struct {
	cands []swapCandidate
	// base is the fast usage per layer with every tensor resident.
	base []int64
	// transfer is each candidate's one-way migration time.
	transfer []simtime.Duration
	// prefix[l] is the static time of layers [0, l).
	prefix []simtime.Duration
	// diff is the usage change swapped candidates make, as a difference
	// array over layers; score leaves it zeroed.
	diff     []int64
	fastSize int64
}

func newSwapScorer(g *graph.Graph, spec memsys.Spec, cands []swapCandidate) *swapScorer {
	n := g.NumLayers
	s := &swapScorer{
		cands:    cands,
		base:     make([]int64, n),
		transfer: make([]simtime.Duration, len(cands)),
		prefix:   make([]simtime.Duration, n+1),
		diff:     make([]int64, n+1),
		fastSize: spec.Fast.Size,
	}
	for _, t := range g.Tensors {
		s.diff[t.AllocLayer] += t.Size
		s.diff[t.FreeLayer+1] -= t.Size
	}
	var u int64
	for l := range s.base {
		u += s.diff[l]
		s.base[l] = u
	}
	clear(s.diff)
	for i, c := range cands {
		s.transfer[i] = simtime.TransferTime(c.size, spec.MigrationBW)
	}
	for l, d := range staticLayerTimes(g, spec) {
		s.prefix[l+1] = s.prefix[l] + d
	}
	return s
}

// score rates a genome. Usage and durations are integers, so the result
// does not depend on the order swaps are applied in; exposed time is
// summed in candidate order.
func (s *swapScorer) score(gen ga.Genome) float64 {
	n := len(s.base)
	var exposed float64
	for i, c := range s.cands {
		lead := gen[i]
		if lead == 0 {
			continue
		}
		// Swapped out over the idle gap, clipped at the last layer.
		if lo, hi := c.end+1, min(c.resume, n); lo < hi {
			s.diff[lo] -= c.size
			s.diff[hi] += c.size
		}
		// The prefetch overlaps the lead layers before reuse; a lead
		// reaching before layer 0 overlaps nothing.
		var overlap simtime.Duration
		if from := c.resume - lead; from >= 0 {
			overlap = s.prefix[c.resume] - s.prefix[from]
		}
		if t := s.transfer[i]; t > overlap {
			exposed += (t - overlap).Seconds()
		}
	}
	var penalty float64
	var delta int64
	for l, u := range s.base {
		delta += s.diff[l]
		s.diff[l] = 0
		if over := u + delta - s.fastSize; over > 0 {
			penalty += float64(over) * 1e-6
		}
	}
	s.diff[n] = 0
	return exposed + penalty
}

// TensorAllocated keeps fresh allocations on the GPU when possible.
func (p *SwapAdvisor) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	if p.rt.Kernel().Free(memsys.Fast) >= 0 {
		p.rt.RelocateFresh(r, memsys.Fast)
	}
}

// LayerStart issues scheduled prefetches.
func (p *SwapAdvisor) LayerStart(l int) {
	for _, id := range p.inAt[l] {
		p.rt.MigrateTensor(id, memsys.Fast)
	}
}

// LayerEnd issues scheduled swap-outs.
func (p *SwapAdvisor) LayerEnd(l int) {
	for _, id := range p.outAt[l] {
		p.rt.MigrateTensor(id, memsys.Slow)
	}
}

// MakeRoom implements exec.Evictor: fall back to swapping unscheduled
// candidates on demand (SwapAdvisor's runtime does on-demand eviction when
// the schedule misjudged capacity).
func (p *SwapAdvisor) MakeRoom(rt *exec.Runtime, need int64) int64 {
	return rt.EvictInOrder(p.evict, need)
}
