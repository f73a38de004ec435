package profile

// Online re-profiling (the sampling half of the adaptive controller's
// detect -> re-profile -> replan -> recover loop). Unlike the initial
// profiling step — every tensor page-aligned on slow memory, every page
// poisoned — an online round runs *inside* the managed phase: allocation
// stays reorganized, the plan keeps migrating, and only a deterministic
// sample of long-lived tensors is re-poisoned. Each sampled access takes a
// protection fault whose cost the engine charges to the running op, so the
// overhead of measuring is honestly paid in simulated time, exactly like
// the initial step's 5x-slowdown accounting.

import (
	"slices"
	"strconv"

	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// Sampler drives one online re-profiling round: poison bits re-armed on a
// deterministic sample of long-lived tensors, fault counts harvested as
// regions come and go, observed access rates assembled at Finish. The
// owning policy forwards its TensorAllocated/TensorFreed/StepEnd hooks
// while a round is active.
type Sampler struct {
	rt    *exec.Runtime
	prof  *Profile
	round int
	steps int
	// ids is the sample in deterministic order (profiled access rank,
	// rotated by round); states is parallel to it.
	ids    []tensor.ID
	states []sampleState
	// idx maps a sampled id to its states index; membership lookups only,
	// never iterated.
	idx map[tensor.ID]int
}

// sampleState tracks one sampled tensor's fault evidence across region
// lifetimes: accesses harvested from regions already freed, plus the live
// region's baseline to subtract at the next harvest.
type sampleState struct {
	// accesses harvested from closed (freed) regions, in access units.
	harvested int64
	// base is the region's FaultCounts at poison time (earlier rounds or
	// page sharing may have left counts behind); live marks a region open.
	base       int64
	live       bool
	addr, size int64
	pages      int64
}

// NewSampler arms a sampling round on the runtime: every poison bit is
// cleared (the initial profiling step left its bits set), every `every`-th
// long-lived tensor by profiled access rank is re-poisoned — the offset
// rotates with the round index so consecutive rounds cover different
// slices — and fault accounting is switched on. Returns nil when the
// profile has nothing long-lived to sample.
func NewSampler(rt *exec.Runtime, p *Profile, round, every int) *Sampler {
	long := p.LongLived()
	if len(long) == 0 {
		return nil
	}
	if every < 1 {
		every = 1
	}
	var ids []tensor.ID
	for i := round % every; i < len(long); i += every {
		ids = append(ids, long[i])
	}
	if len(ids) == 0 {
		// Rotation overshot a tiny model; sample the hottest tensor.
		ids = append(ids, long[0])
	}
	s := &Sampler{
		rt: rt, prof: p, round: round,
		ids:    ids,
		states: make([]sampleState, len(ids)),
		idx:    make(map[tensor.ID]int, len(ids)),
	}
	kern := rt.Kernel()
	kern.ClearPoison()
	var poisoned int64
	for i, id := range ids {
		s.idx[id] = i
		r, ok := rt.Alloc().Region(id)
		if !ok {
			continue // produced later in the step; the alloc hook arms it
		}
		s.open(i, r)
		poisoned += r.Size
	}
	kern.SetProfiling(true)
	rt.Emit(trace.Event{At: rt.Now(), Kind: trace.KReprofileArm, Tensor: trace.NoTensor,
		Name: roundLabel(round), Count: int64(len(ids)), Bytes: poisoned})
	return s
}

// open poisons a sampled tensor's live region and records the fault-count
// baseline to subtract at harvest.
func (s *Sampler) open(i int, r alloc.Region) {
	first, last := r.Pages()
	s.rt.Kernel().Poison(first, last)
	st := &s.states[i]
	st.base = s.rt.Kernel().FaultCounts(r.Addr, r.Size)
	st.live = true
	st.addr, st.size = r.Addr, r.Size
	st.pages = int64(last-first) + 1
}

// harvest folds the live region's fault delta into the accumulated access
// count (fault counts are per page, uniform across a tensor's pages).
func (s *Sampler) harvest(i int) {
	st := &s.states[i]
	if !st.live || st.pages <= 0 {
		return
	}
	delta := s.rt.Kernel().FaultCounts(st.addr, st.size) - st.base
	if delta > 0 {
		st.harvested += delta / st.pages
	}
	st.live = false
}

// TensorAllocated re-arms a sampled tensor whose region was recycled
// mid-round (long-lived activations are still freed and reallocated every
// step).
func (s *Sampler) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	i, ok := s.idx[t.ID]
	if !ok {
		return
	}
	s.harvest(i) // defensive: a leaked previous region closes here
	s.open(i, r)
}

// TensorFreed harvests a sampled tensor's faults before its region is
// recycled.
func (s *Sampler) TensorFreed(t *tensor.Tensor, _ alloc.Region) {
	i, ok := s.idx[t.ID]
	if !ok {
		return
	}
	s.harvest(i)
}

// StepEnd counts one observed step.
func (s *Sampler) StepEnd() { s.steps++ }

// Observation is a finished round: per-tensor observed accesses per step
// for the sampled ids. IDs preserves the deterministic sample order;
// Accesses is keyed for lookup and never iterated.
type Observation struct {
	Round    int
	Steps    int
	IDs      []tensor.ID
	Accesses map[tensor.ID]int64
}

// Finish closes the round: fault accounting off, every poison bit cleared,
// live regions harvested, and per-step access rates assembled and emitted
// on the trace bus.
func (s *Sampler) Finish() *Observation {
	kern := s.rt.Kernel()
	kern.SetProfiling(false)
	steps := s.steps
	if steps < 1 {
		steps = 1
	}
	obs := &Observation{
		Round: s.round, Steps: steps,
		IDs:      s.ids,
		Accesses: make(map[tensor.ID]int64, len(s.ids)),
	}
	for i, id := range s.ids {
		s.harvest(i)
		perStep := s.states[i].harvested / int64(steps)
		obs.Accesses[id] = perStep
		ts := s.prof.ByID(id)
		name := ""
		size := int64(0)
		if ts != nil {
			name, size = ts.Name, ts.Size
		}
		s.rt.Emit(trace.Event{At: s.rt.Now(), Kind: trace.KReprofileSample, Tensor: id,
			Name: name, Count: perStep, Bytes: size})
	}
	kern.ClearPoison()
	return obs
}

// roundLabel renders a round index for trace events.
func roundLabel(round int) string { return "round " + strconv.Itoa(round) }

// Blend merges a finished round into the prior profile: each sampled
// tensor's access count becomes decay*old + (1-decay)*observed, with the
// per-layer attribution rescaled proportionally (the observation has no
// layer resolution; the old distribution is the best available shape).
// Unsampled tensors keep their old counts. The input profile is not
// modified — PerLayer may share the graph's ground-truth slices, so every
// touched tensor gets copies, as applyNoise does. The blended profile
// sorts its own LongLived list.
func Blend(old *Profile, obs *Observation, decay float64) *Profile {
	q := &Profile{
		Model:          old.Model,
		Batch:          old.Batch,
		NumLayers:      old.NumLayers,
		Tensors:        slices.Clone(old.Tensors),
		LayerTime:      old.LayerTime,
		PeakShortLived: old.PeakShortLived,
		PeakMemory:     old.PeakMemory,
		Faults:         old.Faults,
		FaultTime:      old.FaultTime,
		StepTime:       old.StepTime,
	}
	for i := range q.Tensors {
		ts := &q.Tensors[i]
		observed, ok := obs.Accesses[ts.ID]
		if !ok {
			continue
		}
		blended := int64(decay*float64(ts.Accesses) + (1-decay)*float64(observed) + 0.5)
		if blended == ts.Accesses {
			continue
		}
		if ts.Accesses > 0 && len(ts.PerLayer) > 0 {
			f := float64(blended) / float64(ts.Accesses)
			scaled := make([]tensor.LayerAccess, len(ts.PerLayer))
			var n int64
			for j, a := range ts.PerLayer {
				a.Reads = int(f*float64(a.Reads) + 0.5)
				a.Writes = int(f*float64(a.Writes) + 0.5)
				scaled[j] = a
				n += int64(a.Reads + a.Writes)
			}
			ts.PerLayer = scaled
			ts.Accesses = n
			continue
		}
		// The old profile saw nothing: attribute everything to the alloc
		// layer as reads — no better shape is known.
		if blended > 0 {
			ts.PerLayer = []tensor.LayerAccess{{Layer: ts.AllocLayer, Reads: int(blended)}}
			ts.Accesses = blended
		}
	}
	return q
}
