// Package core implements Sentinel itself (Sec. IV): tensor-level dynamic
// profiling during training, data reorganization that co-allocates tensors
// by lifetime and access frequency, a reserved fast-memory pool for
// short-lived tensors, and adaptive layer-based migration whose interval
// length is chosen by an analytical performance model (Equations 1 and 2),
// with test-and-trial handling of unfinished migrations (Case 3).
package core

import (
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
	p       *profile.Profile
	spec    memsys.Spec
	reserve int64 // RS: fast memory reserved for short-lived tensors
	// fastLayer projects each layer's time when its tensors are in fast
	// memory: max(compute, mem*fastRatio) — the profiling step measured
	// mem time on slow memory.
	fastLayer []simtime.Duration
	// longLived is the profile's long-lived tensors by descending access
	// count; byLayer[l] lists those accessed in layer l in that order.
	longLived []tensor.ID
	byLayer   [][]tensor.ID
	// needsBuf, idxBuf and mark are grouping scratch reused across
	// ChooseMIL's candidate estimates, where re-allocating the
	// per-interval lists dominated plan-construction allocations.
	needsBuf [][]tensor.ID
	idxBuf   []int
	mark     []int
	// intBuf is Estimate's per-interval execution-time scratch.
	intBuf []simtime.Duration
}

func newPerfModel(p *profile.Profile, spec memsys.Spec, reserve int64, st LayerDecomp) *perfModel {
	m := &perfModel{p: p, spec: spec, reserve: reserve, longLived: p.LongLived()}
	ratio := fastMemRatio(spec)
	m.fastLayer = make([]simtime.Duration, p.NumLayers)
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
		m.fastLayer[l] = d + simtime.FromSeconds((1-spec.OverlapFactor)*lo.Seconds())
	}

	m.byLayer = make([][]tensor.ID, p.NumLayers)
	for _, id := range m.longLived {
		for _, a := range p.ByID(id).PerLayer {
			m.byLayer[a.Layer] = append(m.byLayer[a.Layer], id)
		}
	}
	m.idxBuf = make([]int, p.NumLayers)
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
	clear(m.mark) // mark[id] is 1 + the last interval id was appended to
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

// intervalNeeds groups the long-lived tensors by uniform intervals of mil
// layers into scratch that stays valid until the next call.
func (m *perfModel) intervalNeeds(mil int) [][]tensor.ID {
	n := numIntervals(m.p.NumLayers, mil)
	for len(m.needsBuf) < n {
		m.needsBuf = append(m.needsBuf, nil)
	}
	needs := m.needsBuf[:n]
	for k := range needs {
		needs[k] = needs[k][:0]
	}
	for l := range m.idxBuf {
		m.idxBuf[l] = l / mil
	}
	return m.groupNeeds(needs, m.idxBuf)
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
	clear(m.mark) // mark[id] == len(starts): id already counted this interval
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

func numIntervals(layers, mil int) int {
	if mil <= 0 {
		mil = 1
	}
	return (layers + mil - 1) / mil
}

// Estimate projects the step time for one candidate MIL. Prefetch for
// interval k overlaps with interval k-1's execution; prefetch volume beyond
// the Equation 1 budget stays in slow memory and pays slower accesses.
func (m *perfModel) Estimate(mil int) MILEstimate {
	est := MILEstimate{MIL: mil, Feasible: true}
	needs := m.intervalNeeds(mil)
	n := len(needs)
	budget := m.spec.Fast.Size - m.reserve
	if budget < 0 {
		budget = 0
	}

	// Interval execution times on fast memory (scratch reused across the
	// ChooseMIL exploration).
	for len(m.intBuf) < n {
		m.intBuf = append(m.intBuf, 0)
	}
	intTime := m.intBuf[:n]
	for k := range intTime {
		intTime[k] = 0
	}
	for l := 0; l < m.p.NumLayers; l++ {
		intTime[l/mil] += m.fastLayer[l]
	}

	deltaRead := 1/m.spec.Slow.ReadBW - 1/m.spec.Fast.ReadBW
	deltaWrite := 1/m.spec.Slow.WriteBW - 1/m.spec.Fast.WriteBW
	var total simtime.Duration
	for k := 0; k < n; k++ {
		// Walk the interval's needs in migration-priority order:
		// tensors past the Equation 1 budget are left in slow memory
		// and every access they make in this interval pays the
		// bandwidth difference.
		var bytes, overflow int64
		var slowPenalty simtime.Duration
		for _, id := range needs[k] {
			ts := m.p.ByID(id)
			if bytes+ts.Size <= budget {
				bytes += ts.Size
				continue
			}
			overflow += ts.Size
			var reads, writes int
			for _, a := range ts.PerLayer {
				if a.Layer/mil == k {
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
		if overflow > est.OverflowBytes {
			est.OverflowBytes = overflow
		}
		if overflow > 0 {
			est.Feasible = false
		}
		// Migration for interval k overlaps interval k-1 (cyclically:
		// steady-state steps wrap).
		mig := simtime.TransferTime(bytes, m.spec.MigrationBW)
		prev := intTime[(k-1+n)%n]
		exposed := mig - prev
		if exposed < 0 {
			exposed = 0
		}
		est.Exposed += exposed
		total += intTime[k] + exposed + slowPenalty + m.spec.SyncCost
	}
	est.StepTime = total
	return est
}

// ChooseMIL runs the Equation 1 + Equation 2 exploration over all interval
// lengths and returns the best MIL plus every candidate's estimate. The
// exploration is analytical — no training steps are spent (Sec. IV-D).
func (m *perfModel) ChooseMIL() (int, []MILEstimate) {
	maxMIL := m.p.NumLayers
	if maxMIL < 1 {
		maxMIL = 1
	}
	var ests []MILEstimate
	best := 1
	var bestEst *MILEstimate
	for mil := 1; mil <= maxMIL; mil++ {
		e := m.Estimate(mil)
		ests = append(ests, e)
		if bestEst == nil || better(e, *bestEst) {
			best = mil
			be := e
			bestEst = &be
		}
	}
	return best, ests
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
