package core

import (
	"fmt"
	"strconv"

	"sentinel/internal/memsys"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// Plan is the migration schedule derived from one profile: the chosen
// interval boundaries, per-interval prefetch lists in priority order, and
// per-layer eviction lists. Intervals are usually uniform (MIL layers
// each, the paper's default); Sec. IV-E's variable-length alternative is
// supported through explicit boundaries.
type Plan struct {
	// MIL is the uniform interval length; for variable-length plans it
	// records the model-chosen base length the boundaries grew from.
	MIL          int
	NumIntervals int
	NumLayers    int
	// Starts[k] is the first layer of interval k; idxOf maps layers to
	// intervals.
	Starts []int
	idxOf  []int
	// Reserve is RS: the fast-memory bytes reserved for the short-lived
	// pool (peak short-lived consumption plus slack).
	Reserve int64
	// Needs[k] lists long-lived tensors with accesses in interval k, in
	// migration-priority order.
	Needs [][]tensor.ID
	// NeedBytes[k] is the total size of Needs[k].
	NeedBytes []int64
	// EvictAt[l] lists long-lived tensors whose last access before a
	// long idle gap is in layer l: after layer l they are moved out of
	// fast memory to make room (the "middle of the interval" migration
	// of Sec. IV-D, which also prevents Case 2).
	EvictAt [][]tensor.ID
	// Short reports whether a tensor is short-lived per the profile.
	Short []bool
}

// reserveSlack oversizes the short-lived pool slightly so allocation-order
// jitter cannot overflow it.
const reserveSlack = 1.10

// shortReserve is RS, the fast memory a plan reserves for the short-lived
// pool: the profile's peak short-lived consumption plus slack.
func shortReserve(p *profile.Profile) int64 {
	return int64(float64(p.PeakShortLived) * reserveSlack)
}

// BuildPlan derives the migration plan from a profile for the given
// machine. If forceMIL > 0 the performance model is bypassed (used by the
// Figure 5 interval sweep and the "direct migration" ablation).
func BuildPlan(p *profile.Profile, spec memsys.Spec, st LayerDecomp, forceMIL int) (*Plan, error) {
	return buildPlan(p, spec, st, forceMIL, false)
}

// BuildPlanVariable derives a plan with variable-length intervals: each
// interval grows from the model-chosen base length until its prefetch
// volume hits the Equation 1 budget. The paper discusses this variant and
// finds it brings minimal benefit (Sec. IV-E); it is provided so that
// claim can be measured.
func BuildPlanVariable(p *profile.Profile, spec memsys.Spec, st LayerDecomp) (*Plan, error) {
	return buildPlan(p, spec, st, 0, true)
}

func buildPlan(p *profile.Profile, spec memsys.Spec, st LayerDecomp, forceMIL int, variable bool) (*Plan, error) {
	if p.NumLayers <= 0 {
		return nil, fmt.Errorf("core: profile has no layers")
	}
	reserve := shortReserve(p)
	model := newPerfModel(p, spec, reserve, st)

	mil := forceMIL
	if mil <= 0 {
		mil = model.ChooseMIL()
	}
	if mil > p.NumLayers {
		mil = p.NumLayers
	}

	pl := &Plan{
		MIL:       mil,
		NumLayers: p.NumLayers,
		Reserve:   reserve,
		EvictAt:   make([][]tensor.ID, p.NumLayers),
		Short:     make([]bool, len(p.Tensors)),
	}
	if variable {
		pl.Starts = model.variableBoundaries(mil, spec.Fast.Size-reserve)
	} else {
		for l := 0; l < p.NumLayers; l += mil {
			pl.Starts = append(pl.Starts, l)
		}
	}
	pl.NumIntervals = len(pl.Starts)
	pl.idxOf = make([]int, p.NumLayers)
	for k, start := range pl.Starts {
		end := p.NumLayers
		if k+1 < len(pl.Starts) {
			end = pl.Starts[k+1]
		}
		for l := start; l < end; l++ {
			pl.idxOf[l] = k
		}
	}

	pl.Needs = model.needsByIndex(pl.idxOf, pl.NumIntervals)
	pl.NeedBytes = make([]int64, pl.NumIntervals)
	for k := range pl.Needs {
		for _, id := range pl.Needs[k] {
			pl.NeedBytes[k] += p.ByID(id).Size
		}
	}
	for i := range p.Tensors {
		pl.Short[i] = p.Tensors[i].ShortLived()
	}

	// Eviction schedule: a long-lived tensor leaves fast memory after
	// the last layer of an access burst when its next access is beyond
	// the end of the next interval (evicting tensors needed imminently
	// would waste migration bandwidth both ways).
	for _, id := range model.longLived {
		ts := p.ByID(id)
		for _, a := range ts.PerLayer {
			l := a.Layer
			next := ts.NextAccessAfter(l)
			if next == -1 {
				// No further access this step. Tensors about to be
				// freed are reclaimed by the allocator — evicting
				// them would waste bandwidth (the exact mistake
				// caching policies make, Sec. IV-C). Preallocated
				// tensors wrap to their first access next step.
				if !ts.Preallocated || len(ts.PerLayer) == 0 {
					continue
				}
				next = ts.PerLayer[0].Layer + p.NumLayers
			}
			if next > pl.endOfNextInterval(l) {
				pl.EvictAt[l] = append(pl.EvictAt[l], id)
			}
		}
	}
	return pl, nil
}

// endOfNextInterval returns the last layer of the interval after l's;
// past the end of the step it extends beyond NumLayers, which compares
// correctly against wrapped next-access layers.
func (pl *Plan) endOfNextInterval(l int) int {
	k := pl.idxOf[l]
	if k+2 < len(pl.Starts) {
		return pl.Starts[k+2] - 1
	}
	// The next interval wraps into the following step; approximate its
	// end with one base interval past the step boundary.
	return pl.NumLayers + pl.MIL - 1
}

// IntervalOf returns the interval index containing layer l.
func (pl *Plan) IntervalOf(l int) int { return pl.idxOf[l] }

// IntervalStart reports whether layer l begins an interval.
func (pl *Plan) IntervalStart(l int) bool {
	return l == 0 || pl.idxOf[l] != pl.idxOf[l-1]
}

// NextInterval returns the interval after k, wrapping to 0 at the end of
// the step (weights prefetched for the next step's first interval).
func (pl *Plan) NextInterval(k int) int { return (k + 1) % pl.NumIntervals }

// GroupKey assigns a tensor to its co-allocation group (Sec. IV-B):
// short-lived tensors share the reserved pool; long-lived tensors are
// grouped by exact layer residence and access-frequency bucket so no page
// mixes different lifetimes or temperatures. p is the profile the plan was
// built from. The allocator resolves a tensor's group once per
// Reconfigure generation, so the key is rendered on each call.
func (pl *Plan) GroupKey(p *profile.Profile, t *tensor.Tensor) string {
	ts := p.ByID(t.ID)
	if ts == nil || ts.Name == "" {
		return "unprofiled"
	}
	if pl.Short[t.ID] {
		return ShortPoolGroup
	}
	// L<alloc>-<free>/h<bucket>, built without fmt.
	var buf [32]byte
	k := append(buf[:0], 'L')
	k = strconv.AppendInt(k, int64(ts.AllocLayer), 10)
	k = append(k, '-')
	k = strconv.AppendInt(k, int64(ts.FreeLayer), 10)
	k = append(k, "/h"...)
	k = strconv.AppendInt(k, int64(hotBucket(ts.Accesses)), 10)
	return string(k)
}

// ShortPoolGroup names the pinned short-lived arena.
const ShortPoolGroup = "short-pool"

// hotBucket buckets access counts on a log scale.
func hotBucket(accesses int64) int {
	b := 0
	for a := accesses; a >= 10; a /= 10 {
		b++
	}
	return b
}

// LowerBound returns the paper's lower bound on fast memory size: the peak
// short-lived consumption plus the largest long-lived tensor (Sec. IV-E).
func LowerBound(p *profile.Profile) int64 {
	var largest int64
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		if !ts.ShortLived() && ts.Size > largest {
			largest = ts.Size
		}
	}
	return p.PeakShortLived + largest
}

// String summarizes the plan.
func (pl *Plan) String() string {
	return fmt.Sprintf("plan{MIL=%d intervals=%d reserve=%s}",
		pl.MIL, pl.NumIntervals, simtime.Bytes(pl.Reserve))
}
