// Package core implements Sentinel itself (Sec. IV): tensor-level dynamic
// profiling during training, data reorganization that co-allocates tensors
// by lifetime and access frequency, a reserved fast-memory pool for
// short-lived tensors, and adaptive layer-based migration whose interval
// length is chosen by an analytical performance model (Equations 1 and 2),
// with test-and-trial handling of unfinished migrations (Case 3).
package core

import (
	"slices"

	"sentinel/internal/memsys"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// MILEstimate is the performance model's projection for one candidate
// migration interval length.
type MILEstimate struct {
	MIL int
	// StepTime is the projected training-step time.
	StepTime simtime.Duration
	// Exposed is migration time the model expects on the critical path
	// (the Equation 2 objective term).
	Exposed simtime.Duration
	// OverflowBytes is prefetch volume that violates the Equation 1
	// space constraint in the worst interval.
	OverflowBytes int64
	// Feasible reports whether Equation 1 holds for every interval.
	Feasible bool
}

// perfModel evaluates candidate interval lengths against the profile.
type perfModel struct {
	p    *profile.Profile
	spec memsys.Spec
	// budget is Equation 1's bound on one interval's prefetch: the fast
	// memory left after RS, the reserve for short-lived tensors.
	budget int64
	// fastTime[l] projects layers [0, l) with their tensors in fast
	// memory, each layer at max(compute, mem*fastRatio) plus its
	// non-overlapped part — the profiling step measured mem time on slow
	// memory. An interval's time is the difference of two entries.
	fastTime []simtime.Duration
	// longLived is the profile's long-lived tensors by descending access
	// count; byLayer[l] lists those accessed in layer l in that order.
	longLived []tensor.ID
	byLayer   [][]tensor.ID
	// totals[off[mil]+k] is Equation 1's left side for interval k of
	// length mil: the bytes of the distinct long-lived tensors the
	// interval accesses. Filled on first use by sweepTotals.
	totals []int64
	off    []int
	// mark is per-tensor scratch for the grouping walks; it is all zero
	// between calls.
	mark []int
}

func newPerfModel(p *profile.Profile, spec memsys.Spec, reserve int64, st LayerDecomp) *perfModel {
	m := &perfModel{p: p, spec: spec, budget: max(spec.Fast.Size-reserve, 0), longLived: p.LongLived()}
	ratio := fastMemRatio(spec)
	m.fastTime = make([]simtime.Duration, p.NumLayers+1)
	for l := 0; l < p.NumLayers; l++ {
		c := st.compute(l)
		mem := simtime.FromSeconds(st.mem(l).Seconds() * ratio)
		d := c
		if mem > d {
			d = mem
		}
		lo := c
		if mem < lo {
			lo = mem
		}
		m.fastTime[l+1] = m.fastTime[l] + d + simtime.FromSeconds((1-spec.OverlapFactor)*lo.Seconds())
	}

	m.byLayer = make([][]tensor.ID, p.NumLayers)
	for _, id := range m.longLived {
		for _, a := range p.ByID(id).PerLayer {
			m.byLayer[a.Layer] = append(m.byLayer[a.Layer], id)
		}
	}
	m.mark = make([]int, len(p.Tensors))
	return m
}

// LayerDecomp carries per-layer compute/memory time components measured
// during the profiling step; the performance model projects them onto
// fast-memory placements.
type LayerDecomp struct {
	Compute, Mem []simtime.Duration
}

// LayerDecompFromProfile derives a decomposition from a collected profile
// when the raw step statistics are unavailable: profiling ran on slow
// memory, so the measured layer times are treated as memory-dominated.
func LayerDecompFromProfile(p *profile.Profile) LayerDecomp {
	return LayerDecomp{Mem: p.LayerTime}
}

func (d LayerDecomp) compute(l int) simtime.Duration {
	if l < len(d.Compute) {
		return d.Compute[l]
	}
	return 0
}

func (d LayerDecomp) mem(l int) simtime.Duration {
	if l < len(d.Mem) {
		return d.Mem[l]
	}
	return 0
}

// overflowMitigation scales the modelled cost of tensors left in slow
// memory: the runtime's demand-time mitigation (make-room eviction and
// priority fetches) recovers most of the naive penalty.
const overflowMitigation = 0.55

// mixedSecPerByte is the access cost of a tier for a typical 70/30
// read/write mix, in seconds per byte.
func mixedSecPerByte(t memsys.TierSpec) float64 {
	return 0.7/t.ReadBW + 0.3/t.WriteBW
}

// fastMemRatio converts slow-memory access time to fast-memory access time
// for a typical 70/30 read/write mix.
func fastMemRatio(spec memsys.Spec) float64 {
	slow := mixedSecPerByte(spec.Slow)
	fast := mixedSecPerByte(spec.Fast)
	if slow <= 0 {
		return 1
	}
	return fast / slow
}

// groupNeeds appends to needs[k] the long-lived tensors with at least one
// access in interval k, where layer l lies in interval idxOf[l]
// (non-decreasing). Within an interval, tensors are ordered by the layer
// of their first access there (so transfers arrive in need order), with
// access count breaking ties — under capacity pressure the tail of the
// list is what stays in slow memory, and need-ordering keeps imminent
// tensors at the front. Walking the layers in order, each in longLived
// order, yields that order without a sort.
func (m *perfModel) groupNeeds(needs [][]tensor.ID, idxOf []int) [][]tensor.ID {
	defer clear(m.mark) // mark[id] is 1 + the last interval id was appended to
	for l, k := range idxOf {
		for _, id := range m.byLayer[l] {
			if m.mark[id] != k+1 {
				m.mark[id] = k + 1
				needs[k] = append(needs[k], id)
			}
		}
	}
	return needs
}

// needsByIndex groups the long-lived tensors by an explicit
// layer-to-interval mapping, uniform or variable, into fresh lists.
func (m *perfModel) needsByIndex(idxOf []int, n int) [][]tensor.ID {
	return m.groupNeeds(make([][]tensor.ID, n), idxOf)
}

// variableBoundaries grows intervals greedily from the base length: an
// interval extends layer by layer while its prefetch volume stays within
// the Equation 1 budget and its length stays under 2x the base.
func (m *perfModel) variableBoundaries(baseMIL int, budget int64) []int {
	maxLen := 2 * baseMIL
	starts := []int{0}
	defer clear(m.mark) // mark[id] == len(starts): id already counted this interval
	// unseen sums the bytes of ids the current interval does not hold yet.
	unseen := func(ids []tensor.ID) (add int64) {
		for _, id := range ids {
			if m.mark[id] != len(starts) {
				add += m.p.ByID(id).Size
			}
		}
		return add
	}
	var bytes int64
	length := 0
	for l, ids := range m.byLayer {
		add := unseen(ids)
		if length > 0 && (bytes+add > budget || length >= maxLen) {
			starts = append(starts, l)
			bytes, length = 0, 0
			// The new interval holds none of this layer's tensors, even
			// those the old one already counted.
			add = unseen(ids)
		}
		for _, id := range ids {
			m.mark[id] = len(starts)
		}
		bytes += add
		length++
	}
	return starts
}

// fenwick is a binary indexed tree of byte counts over layers.
type fenwick []int64

// add adds v at layer l.
func (f fenwick) add(l int, v int64) {
	for i := l + 1; i < len(f); i += i & -i {
		f[i] += v
	}
}

// sum returns the total over layers [0, l).
func (f fenwick) sum(l int) (s int64) {
	for i := l; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

// sweepTotals fills totals for every candidate length in one pass over
// the layers. The tree holds each long-lived tensor's bytes at its latest
// access so far, so once layer hi-1 is swept, its sum over [lo, hi) is
// the distinct bytes of the interval [lo, hi). The intervals ending at hi
// are those of every length dividing hi and, at the last layer, the final
// interval of every length.
func (m *perfModel) sweepTotals() {
	layers := m.p.NumLayers
	m.off = make([]int, layers+2)
	for mil := 1; mil <= layers; mil++ {
		m.off[mil+1] = m.off[mil] + (layers+mil-1)/mil
	}
	m.totals = make([]int64, m.off[layers+1])
	tree := make(fenwick, layers+1)
	defer clear(m.mark) // mark[id] is 1 + the layer of id's latest access
	for l, ids := range m.byLayer {
		for _, id := range ids {
			size := m.p.ByID(id).Size
			if prev := m.mark[id]; prev > 0 {
				tree.add(prev-1, -size)
			}
			tree.add(l, size)
			m.mark[id] = l + 1
		}
		hi := l + 1
		upTo := tree.sum(hi)
		store := func(mil int) {
			k := (hi - 1) / mil
			m.totals[m.off[mil]+k] = upTo - tree.sum(k*mil)
		}
		if hi == layers {
			for mil := 1; mil <= layers; mil++ {
				store(mil)
			}
			continue
		}
		for d := 1; d*d <= hi; d++ {
			if hi%d == 0 {
				store(d)
				if d*d != hi {
					store(hi / d)
				}
			}
		}
	}
}

// intervalTotals returns Equation 1's left side for each interval of
// length mil.
func (m *perfModel) intervalTotals(mil int) []int64 {
	if m.totals == nil {
		m.sweepTotals()
	}
	return m.totals[m.off[mil]:m.off[mil+1]]
}

// fits is Equation 1: an interval's prefetch fits the fast memory left
// after the reserve.
func (m *perfModel) fits(bytes int64) bool { return bytes <= m.budget }

// overflowWalk prefetches the long-lived tensors of layers [lo, hi) in
// migration-priority order — by the layer of their first access there,
// then access count, as groupNeeds orders them — while they fit the
// Equation 1 budget. What does not fit stays in slow memory, and every
// access it makes in the interval pays the bandwidth difference.
func (m *perfModel) overflowWalk(lo, hi int) (bytes, overflow int64, slowPenalty simtime.Duration) {
	deltaRead := 1/m.spec.Slow.ReadBW - 1/m.spec.Fast.ReadBW
	deltaWrite := 1/m.spec.Slow.WriteBW - 1/m.spec.Fast.WriteBW
	for _, ids := range m.byLayer[lo:hi] {
		for _, id := range ids {
			if m.mark[id] != 0 {
				continue
			}
			m.mark[id] = 1
			ts := m.p.ByID(id)
			if m.fits(bytes + ts.Size) {
				bytes += ts.Size
				continue
			}
			overflow += ts.Size
			var reads, writes int
			for _, a := range ts.PerLayer {
				if a.Layer >= lo && a.Layer < hi {
					reads += a.Reads
					writes += a.Writes
				}
			}
			// The runtime partially mitigates overflow on demand
			// (eviction of far-future tensors, urgent fetches), so
			// only a fraction of the naive slow-access penalty is
			// realized.
			slowPenalty += simtime.FromSeconds(overflowMitigation * float64(ts.Size) *
				(float64(reads)*deltaRead + float64(writes)*deltaWrite))
		}
	}
	for _, ids := range m.byLayer[lo:hi] {
		for _, id := range ids {
			m.mark[id] = 0
		}
	}
	return bytes, overflow, slowPenalty
}

// Estimate projects the step time for one candidate MIL (Equation 2).
// Prefetch for interval k overlaps with interval k-1's execution. An
// interval whose distinct bytes fit the Equation 1 budget prefetches them
// all and needs no ordering; only one that does not takes overflowWalk.
func (m *perfModel) Estimate(mil int) MILEstimate {
	est := MILEstimate{MIL: mil, Feasible: true}
	layers := m.p.NumLayers
	totals := m.intervalTotals(mil)
	n := len(totals)
	// run is interval k's execution time on fast memory.
	run := func(k int) simtime.Duration {
		return m.fastTime[min((k+1)*mil, layers)] - m.fastTime[k*mil]
	}
	for k, bytes := range totals {
		var slowPenalty simtime.Duration
		if !m.fits(bytes) {
			var overflow int64
			bytes, overflow, slowPenalty = m.overflowWalk(k*mil, min((k+1)*mil, layers))
			est.OverflowBytes = max(est.OverflowBytes, overflow)
			est.Feasible = false
		}
		// Migration for interval k overlaps interval k-1 (cyclically:
		// steady-state steps wrap).
		exposed := max(simtime.TransferTime(bytes, m.spec.MigrationBW)-run((k-1+n)%n), 0)
		est.Exposed += exposed
		est.StepTime += run(k) + exposed + slowPenalty + m.spec.SyncCost
	}
	return est
}

// ChooseMIL runs the Equation 1 + Equation 2 exploration over interval
// lengths 1 to NumLayers and returns the best MIL, feasible first: it
// tests Equation 1 on every candidate's interval totals and projects
// only the candidates that pass, taking the lowest step time and the
// longer interval on a tie. Only when no candidate is feasible does it
// project every candidate in full and take the best by the same rule.
// The pick equals the best of MILEstimates under better, since better
// never prefers an infeasible candidate to a feasible one. The
// exploration is analytical — no training steps are spent (Sec. IV-D).
func (m *perfModel) ChooseMIL() int {
	if mil := m.bestMIL(true); mil > 0 {
		return mil
	}
	return m.bestMIL(false)
}

// bestMIL returns the candidate better ranks first, among the feasible
// ones only if feasibleOnly; 0 if there is none.
func (m *perfModel) bestMIL(feasibleOnly bool) int {
	var best MILEstimate
	for mil := 1; mil <= m.p.NumLayers; mil++ {
		if feasibleOnly && !m.fits(slices.Max(m.intervalTotals(mil))) {
			continue
		}
		if e := m.Estimate(mil); best.MIL == 0 || better(e, best) {
			best = e
		}
	}
	return best.MIL
}

// MILEstimates projects every candidate interval length from 1 to the
// profile's layer count in full, infeasible ones included, with the
// model BuildPlan uses. ChooseMIL projects only what it needs, so
// diagnostics and fidelity checks that want every projection take them
// from here.
func MILEstimates(p *profile.Profile, spec memsys.Spec, st LayerDecomp) []MILEstimate {
	if p.NumLayers <= 0 {
		return nil
	}
	m := newPerfModel(p, spec, shortReserve(p), st)
	ests := make([]MILEstimate, p.NumLayers)
	for i := range ests {
		ests[i] = m.Estimate(i + 1)
	}
	return ests
}

// better prefers feasible estimates, then lower projected step time, then
// the longer interval (fewer migration decisions).
func better(a, b MILEstimate) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.StepTime != b.StepTime {
		return a.StepTime < b.StepTime
	}
	return a.MIL > b.MIL
}
