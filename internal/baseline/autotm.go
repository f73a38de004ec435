package baseline

import (
	"strconv"

	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/ilp"
	"sentinel/internal/memsys"
	"sentinel/internal/tensor"
)

// AutoTM reimplements the AutoTM [7] strategy: static (compile-time)
// profiling feeds an integer linear program that assigns each tensor one
// of three plans —
//
//   - fast: resident in fast memory for its whole lifetime;
//   - offload: fast during its forward and backward access bursts, slow in
//     between, with the moves executed synchronously at the burst edges
//     (AutoTM's data movement sits on the critical path, per the paper's
//     analysis; on GPU the reimplementation issues the prefetch one layer
//     ahead asynchronously, as the paper's Sec. VII-C notes);
//   - slow: resident in slow memory throughout.
//
// The ILP maximizes avoided slow-memory access cost minus movement cost,
// subject to fast-memory capacity at every layer. Static profiling works
// from graph metadata — it cannot see cache-filtered access counts or
// co-allocation effects, which is exactly the gap the paper exploits.
type AutoTM struct {
	exec.Base
	// largeSpill's MakeRoom is AutoTM's runtime spilling tensors on
	// demand when the static plan misjudges capacity.
	largeSpill
	rt *exec.Runtime

	// Per-tensor plans, indexed by tensor ID.
	planFast, planOffload []bool
	// outAt[l] / inAt[l] are the moves scheduled at layer l boundaries.
	outAt, inAt [][]tensor.ID
	solved      bool
	// result is the placement ILP's outcome, kept for tests that pin the
	// search node for node.
	result ilp.Result
}

// NewAutoTM returns the AutoTM baseline.
func NewAutoTM() *AutoTM { return &AutoTM{} }

// Name identifies the policy.
func (p *AutoTM) Name() string { return "autotm" }

// AllocConfig mirrors nGraph's static memory plan: one planned pool per
// placement class, with offloaded tensors on exclusive pages so their
// moves drag nothing else along.
func (p *AutoTM) AllocConfig(g *graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.Grouped,
		Group: func(t *tensor.Tensor) string {
			if !p.solved {
				return "boot"
			}
			switch {
			case p.planOffload[t.ID]:
				return "off-" + strconv.Itoa(int(t.ID))
			case p.planFast[t.ID]:
				return "fast-pool"
			default:
				return "slow-pool"
			}
		},
		Tier: func(t *tensor.Tensor) memsys.Tier {
			if p.solved && (p.planFast[t.ID] || p.planOffload[t.ID]) {
				return memsys.Fast
			}
			return memsys.Slow
		},
	}
}

// TensorFreed releases the dead tensor's fast pages back to the plan; the
// nGraph static plan reuses freed fast-pool space the same way.
func (p *AutoTM) TensorFreed(t *tensor.Tensor, r alloc.Region) {
	if p.planFast[t.ID] || p.planOffload[t.ID] {
		p.rt.Kernel().Relocate(r.Addr, r.Size, memsys.Slow, p.rt.Now())
	}
}

// Setup builds and solves the placement ILP from static information.
func (p *AutoTM) Setup(rt *exec.Runtime) error {
	p.rt = rt
	g := rt.Graph()
	spec := rt.Spec()

	n := len(g.Tensors)
	p.planFast = make([]bool, n)
	p.planOffload = make([]bool, n)
	p.outAt = make([][]tensor.ID, g.NumLayers)
	p.inAt = make([][]tensor.ID, g.NumLayers)

	prob, gaps := placementProblem(g, spec)
	res := ilp.Solve(prob, 100_000)
	p.result = res
	// Variables come tensor by tensor: fast, then offload if it has one.
	v := 0
	for id := 0; id < n; id++ {
		p.planFast[id] = res.X[v]
		v++
		if !gaps[id].offloadable() {
			continue
		}
		p.planOffload[id] = res.X[v]
		v++
		if p.planOffload[id] {
			gp := gaps[id]
			p.outAt[gp.end] = append(p.outAt[gp.end], tensor.ID(id))
			resumePrep := gp.resume - 1
			p.inAt[resumePrep] = append(p.inAt[resumePrep], tensor.ID(id))
		}
	}
	p.solved = true
	return nil
}

// placementProblem formulates AutoTM's placement ILP. Variables, tensor
// by tensor in id order: a fast variable, then an offload variable if the
// tensor has an idle gap of more than two layers (offload is meaningless
// otherwise; such a variable would have no column and no benefit, and
// the search, which ends every path at the first variable of density 0,
// would never reach it). Rows: one fast-capacity row per layer, then one
// exclusivity row per offloadable tensor. A tensor's fast variable
// occupies its lifetime span of capacity rows, its offload variable the
// lifetime minus the gap, so each column is at most three spans, built
// tensor by tensor in ascending row order. gaps[id] is the gap tensor id
// offloads over.
func placementProblem(g *graph.Graph, spec memsys.Spec) (*ilp.Problem, []gapSpan) {
	n := len(g.Tensors)
	deltaRead := 1/spec.Slow.ReadBW - 1/spec.Fast.ReadBW
	deltaWrite := 1/spec.Slow.WriteBW - 1/spec.Fast.WriteBW
	moveCost := 2.0 / spec.MigrationBW // out and back, exposed

	gaps := make([]gapSpan, n)
	offloadable := 0
	for id, t := range g.Tensors {
		if gp := largestGap(t); gp.offloadable() {
			gaps[id] = gp
			offloadable++
		}
	}
	prob := &ilp.Problem{
		Benefit: make([]float64, 0, n+offloadable),
		Bound:   make([]int64, g.NumLayers, g.NumLayers+offloadable),
		Cols:    make([][]ilp.Span, 0, n+offloadable),
	}
	for l := range prob.Bound {
		prob.Bound[l] = spec.Fast.Size
	}
	// One backing array for every column: one span per fast variable,
	// and for an offloadable tensor an exclusivity span on it plus up to
	// three spans on its offload variable.
	spans := make([]ilp.Span, 0, n+4*offloadable)
	col := func(from int) []ilp.Span { return spans[from:len(spans):len(spans)] }

	for id, t := range g.Tensors {
		var reads, writes int
		for _, a := range t.AccessLayers {
			reads += a.Reads
			writes += a.Writes
		}
		benefit := float64(t.Size) * (float64(reads)*deltaRead + float64(writes)*deltaWrite)
		prob.Benefit = append(prob.Benefit, benefit)
		fast := len(spans)
		if t.AllocLayer <= t.FreeLayer {
			spans = append(spans, ilp.Span{Lo: t.AllocLayer, Hi: t.FreeLayer, Coef: t.Size})
		}
		gp := gaps[id]
		if !gp.offloadable() {
			prob.Cols = append(prob.Cols, col(fast))
			continue
		}
		// Offload variable: fast only outside the largest access gap.
		prob.Benefit = append(prob.Benefit, benefit-float64(t.Size)*moveCost)
		excl := len(prob.Bound)
		prob.Bound = append(prob.Bound, 1)
		spans = append(spans, ilp.Span{Lo: excl, Hi: excl, Coef: 1})
		prob.Cols = append(prob.Cols, col(fast))
		off := len(spans)
		if hi := min(gp.end, t.FreeLayer); t.AllocLayer <= hi {
			spans = append(spans, ilp.Span{Lo: t.AllocLayer, Hi: hi, Coef: t.Size})
		}
		if lo := max(gp.resume, t.AllocLayer); lo <= t.FreeLayer {
			spans = append(spans, ilp.Span{Lo: lo, Hi: t.FreeLayer, Coef: t.Size})
		}
		spans = append(spans, ilp.Span{Lo: excl, Hi: excl, Coef: 1})
		prob.Cols = append(prob.Cols, col(off))
	}
	return prob, gaps
}

type gapSpan struct{ end, resume int }

// offloadable reports whether the gap is long enough to offload over.
func (g gapSpan) offloadable() bool { return g.resume-g.end > 2 }

// largestGap finds the biggest idle span between consecutive accesses.
func largestGap(t *tensor.Tensor) gapSpan {
	best := gapSpan{end: t.AllocLayer, resume: t.AllocLayer}
	for i := 1; i < len(t.AccessLayers); i++ {
		prev, next := t.AccessLayers[i-1].Layer, t.AccessLayers[i].Layer
		if next-prev > best.resume-best.end {
			best = gapSpan{end: prev, resume: next}
		}
	}
	return best
}

// TensorAllocated pins planned-fast allocations onto fast pages (fresh
// allocations are remapped, not copied).
func (p *AutoTM) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	if p.planFast[t.ID] || p.planOffload[t.ID] {
		p.rt.RelocateFresh(r, memsys.Fast)
	}
}

// LayerEnd executes the scheduled moves. On CPU both directions are
// synchronous (exposed on the critical path); on GPU the inbound move is
// issued asynchronously one layer ahead.
func (p *AutoTM) LayerEnd(l int) {
	gpu := p.rt.Spec().GPULike
	for _, id := range p.outAt[l] {
		done, moved, _ := p.rt.MigrateTensor(id, memsys.Slow)
		if moved > 0 && !gpu {
			p.rt.WaitUntil(done)
		}
	}
	for _, id := range p.inAt[l] {
		done, moved, _ := p.rt.MigrateTensor(id, memsys.Fast)
		if moved > 0 && !gpu {
			p.rt.WaitUntil(done)
		}
	}
}
