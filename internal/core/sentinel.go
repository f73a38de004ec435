package core

import (
	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// Config selects Sentinel features; the Figure 13 ablations toggle them.
type Config struct {
	// ForceMIL bypasses the performance model with a fixed migration
	// interval length (0 = choose via Equations 1 and 2).
	ForceMIL int
	// CoAllocate groups tensors by lifetime and access frequency to
	// avoid page-level false sharing (Sec. IV-B), and pins the reserved
	// fast-memory pool that holds the short-lived group (Sec. IV-C).
	CoAllocate bool
	// TestAndTrial resolves Case 3 (migration unfinished for lack of
	// time) by trying continuation vs no-migration for one step each
	// and keeping the winner (CPU only; on GPU the engine must wait).
	TestAndTrial bool
	// VariableMIL uses variable-length migration intervals grown from
	// the model-chosen base length (Sec. IV-E's alternative design; the
	// paper finds it brings minimal benefit).
	VariableMIL bool
}

// DefaultConfig returns full-featured Sentinel.
func DefaultConfig() Config {
	return Config{CoAllocate: true, TestAndTrial: true}
}

// DirectConfig is the Figure 13 "direct tensor migration" ablation:
// migrate purely on forthcoming use (one-layer intervals), no reserved
// pool, no co-allocation.
func DirectConfig() Config {
	return Config{ForceMIL: 1}
}

// DetMIConfig is the Figure 13 "w/ det. MI" ablation: model-chosen
// interval length but no reserved pool and no co-allocation.
func DetMIConfig() Config {
	return Config{}
}

// test-and-trial states.
const (
	ttIdle = iota
	ttTrialWait
	ttTrialNoWait
	ttLocked
)

// variantState holds the profile and migration plan of one dataflow
// variant (one input bucket or one control-flow path, Sec. IV-E); static
// models have exactly one.
type variantState struct {
	prof *profile.Profile
	plan *Plan
	// evictable lists, ascending, the indices into prof.Tensors of the
	// tensors plan does not mark short-lived: the only ones MakeRoom's
	// farthest-next-use order can pick. Set with prof and plan by setPlan.
	evictable []int32
	// farthest[l] and spill[l] are MakeRoom's standing orders at layer
	// l: the evictable tensors not needed by layer l+1, farthest next use
	// first, and the last-resort list of every tensor layer l does not
	// access. Both depend on prof and plan alone (liveness only filters
	// them, and the filter keeps their order), so each is built the first
	// time MakeRoom runs at l, and setPlan replaces them all with nil, for
	// not built yet.
	farthest, spill [][]tensor.ID
	// pendingReady[k] is the completion instant of the prefetch issued
	// for interval k (persisted across the step wrap).
	pendingReady []simtime.Time
	// missing[k] is the bytes of interval k's needs that were not fast-
	// resident at its last prefetch — the eviction-pressure signal.
	missing []int64
	// decomp is the profiled per-layer roofline decomposition, cached so
	// an online replan can rebuild the plan without a fresh profiling
	// step.
	decomp LayerDecomp
}

// setPlan installs a profile and the plan built from it, precomputes the
// plan's eviction candidates and drops the standing orders built from the
// previous plan. Every site that sets a variant's profile and plan goes
// through here, so neither evictable nor an order ever goes stale.
func (v *variantState) setPlan(prof *profile.Profile, plan *Plan) {
	v.prof, v.plan = prof, plan
	v.farthest = make([][]tensor.ID, prof.NumLayers)
	v.spill = make([][]tensor.ID, prof.NumLayers)
	v.evictable = make([]int32, 0, len(prof.Tensors))
	for i := range prof.Tensors {
		if id := prof.Tensors[i].ID; int(id) >= len(plan.Short) || !plan.Short[id] {
			v.evictable = append(v.evictable, int32(i))
		}
	}
}

// Sentinel is the runtime system of the paper: one profiling step per
// dataflow variant, data reorganization, then adaptive layer-based
// migration. One runtime serves CPU and GPU machines; on a GPU only the
// profiling differs (Sec. V): profile.Recorder reads pinned host memory,
// and StepEnd charges the one-time weight sync after step 0.
type Sentinel struct {
	cfg Config
	rt  *exec.Runtime

	variants map[int]*variantState
	cur      *variantState
	// profiling is non-nil while the current step is a profiling step.
	profiling *profile.Recorder
	// sampler is non-nil while an online re-profiling round is observing
	// (ReprofileStart..Replan); allocation hooks forward to it.
	sampler   *profile.Sampler
	curLayer  int
	profSteps int

	// Test-and-trial state (global: the trade-off is a property of the
	// machine, not the variant).
	waitMode bool
	ttState  int
	ttSteps  int
	waitTime simtime.Duration
	sawCase3 bool
}

// evictCand is a MakeRoom eviction candidate: a long-lived tensor
// ranked by how far away its next access is.
type evictCand struct {
	id   tensor.ID
	next int
}

// New returns a Sentinel policy with the config.
func New(cfg Config) *Sentinel {
	return &Sentinel{cfg: cfg, waitMode: true, variants: make(map[int]*variantState)}
}

// NewDefault returns full-featured Sentinel.
func NewDefault() *Sentinel { return New(DefaultConfig()) }

// Name identifies the policy: "sentinel-gpu" once set up on a GPU-like
// machine, where the profiling protocol of Sec. V applies, and "sentinel"
// otherwise.
func (s *Sentinel) Name() string {
	if s.rt != nil && s.rt.Spec().GPULike {
		return "sentinel-gpu"
	}
	return "sentinel"
}

// Profile returns the current variant's profile (nil before its profiling
// step completes).
func (s *Sentinel) Profile() *profile.Profile {
	if s.cur == nil {
		return nil
	}
	return s.cur.prof
}

// Plan returns the current variant's migration plan (nil before its
// profiling step completes).
func (s *Sentinel) Plan() *Plan {
	if s.cur == nil {
		return nil
	}
	return s.cur.plan
}

// Variants reports how many dataflow variants have been seen.
func (s *Sentinel) Variants() int { return len(s.variants) }

// OverheadSteps reports profiling plus test-and-trial steps — the Table
// III runtime-overhead accounting. One profiling step per variant.
func (s *Sentinel) OverheadSteps() int { return s.profSteps + s.ttSteps }

// managed reports whether the current step runs under a plan.
func (s *Sentinel) managed() bool {
	return s.profiling == nil && s.cur != nil && s.cur.plan != nil
}

// AllocConfig is the profiling configuration: page-aligned on slow
// memory, so every page holds one tensor and page-level access counts are
// tensor-level counts. Training starts with a profiling step, and
// preallocated tensors, placed now, keep their exclusive pages for the
// whole run because they cannot be reorganized later (Sec. IV-B). Each
// plan's managed configuration comes from managedAllocConfig.
func (s *Sentinel) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.PageAligned,
		Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Slow },
	}
}

// Setup retains the runtime; profiling starts with the first step of each
// unseen variant.
func (s *Sentinel) Setup(rt *exec.Runtime) error {
	s.rt = rt
	return nil
}

// StepStart begins a profiling step whenever the incoming dataflow variant
// has not been seen — the first step of training, a new input bucket, or a
// new control-flow path (Sec. IV-E). A return to a known variant installs
// that variant's allocator configuration, so fresh tensors pack by the
// profile of the dataflow that is running.
func (s *Sentinel) StepStart(step int) {
	s.sawCase3 = false
	v := s.rt.Graph().Variant
	if st, ok := s.variants[v]; ok {
		if st != s.cur {
			s.rt.Alloc().Reconfigure(s.managedAllocConfig(st))
		}
		s.cur = st
		return
	}
	// Unseen dataflow: profile this step.
	s.cur = &variantState{}
	s.variants[v] = s.cur
	s.profSteps++
	if step > 0 {
		// Re-profiling mid-training: switch the allocator back to
		// page-aligned placement on slow memory for this step.
		s.rt.Alloc().Reconfigure(s.AllocConfig(s.rt.Graph()))
	}
	s.profiling = profile.NewRecorder(s.rt)
	// Preallocated tensors were placed at runtime construction; poison
	// and register them with this step's recorder.
	g := s.rt.Graph()
	for _, id := range g.Prealloc {
		if r, ok := s.rt.Alloc().Region(id); ok {
			s.profiling.TensorAllocated(g.T(id), r)
		}
	}
}

// LayerStart drives profiling attribution and, in the managed phase, the
// interval machinery: Case-3 resolution for the starting interval and
// prefetch issue for the next one.
func (s *Sentinel) LayerStart(l int) {
	s.curLayer = l
	if s.profiling != nil {
		s.profiling.LayerStart(l)
		return
	}
	if !s.managed() {
		return
	}
	plan := s.cur.plan
	if !plan.IntervalStart(l) {
		return
	}
	k := plan.IntervalOf(l)
	// Interval-boundary coordination: synchronize with the migration
	// helper threads and compute the migration set. This fixed cost is
	// what makes one-layer intervals expensive (Fig. 5).
	s.rt.WaitUntil(s.rt.Now().Add(s.rt.Spec().SyncCost))
	// Case 3: the prefetch for this interval has not finished.
	if s.cur.pendingReady[k] > s.rt.Now() {
		s.sawCase3 = true
		if s.shouldWait() {
			s.rt.WaitUntil(s.cur.pendingReady[k])
		}
	}
	nk := plan.NextInterval(k)
	s.prefetch(nk)
	// If the inbound channel has slack, start on the interval after next
	// too — deeper pipelining costs nothing when capacity allows, and
	// idempotent migration skips anything already resident or in flight.
	if s.rt.Kernel().InChannel().Idle(s.rt.Now()) {
		s.prefetch(plan.NextInterval(nk))
	}
}

// shouldWait reports whether Case 3 is resolved by waiting for migration
// (vs leaving tensors in slow memory), per the test-and-trial outcome. On
// GPU-like machines the engine's residency stalls wait exactly as long as
// needed, so no explicit wait is added.
func (s *Sentinel) shouldWait() bool {
	if s.rt.Spec().GPULike {
		return false
	}
	if !s.cfg.TestAndTrial {
		return true
	}
	return s.waitMode
}

// prefetch queues migration of interval k's tensors into fast memory in
// need order: by first access in the interval, ties broken by access
// count, the paper's migration key (see groupNeeds). Tensors that do not
// fit stay in slow memory; completion time is recorded for Case-3
// detection.
func (s *Sentinel) prefetch(k int) {
	ready := s.cur.pendingReady[k]
	kern := s.rt.Kernel()
	var missing int64
	defer func() { s.cur.missing[k] = missing }()
	for _, id := range s.cur.plan.Needs[k] {
		r, ok := s.rt.Alloc().Region(id)
		if !ok {
			continue // produced later in the step
		}
		movable := kern.MigrateStats(r.Addr, r.Size, memsys.Fast, s.rt.Now())
		if movable == 0 {
			continue
		}
		missing += movable
		if free := kern.Free(memsys.Fast); free < movable {
			// Make room: release dead allocator chunks, then evict
			// tensors whose next use is farthest.
			s.rt.Alloc().Reclaim(memsys.Fast, movable-free)
			if free = kern.Free(memsys.Fast); free < movable {
				s.MakeRoom(s.rt, movable-free)
			}
		}
		if kern.Free(memsys.Fast) < movable {
			continue // left out in slow memory; hotter tensors won
		}
		done, _, _ := s.rt.MigrateRange(r.Addr, r.Size, memsys.Fast)
		if done > ready {
			ready = done
		}
	}
	s.cur.pendingReady[k] = ready
}

// LayerEnd evicts tensors whose next use is far away, freeing fast memory
// for upcoming prefetches (this is what prevents Case 2). Eviction is
// demand-driven: when everything upcoming is already resident, nothing
// moves — a model that fits trains migration-free.
func (s *Sentinel) LayerEnd(l int) {
	if !s.managed() {
		return
	}
	plan := s.cur.plan
	k := plan.IntervalOf(l)
	next := plan.NextInterval(k)
	pressure := s.cur.missing[next]
	if plan.NumIntervals > 2 {
		pressure += s.cur.missing[plan.NextInterval(next)]
	}
	if pressure == 0 {
		return
	}
	// Free space must cover the upcoming prefetches and the fresh
	// allocations that will compete for it; only a comfortable surplus
	// makes eviction skippable, and only on machines whose compute
	// cannot read slow memory in place (on CPU, eager eviction keeps
	// the write path in fast memory and costs nothing off the critical
	// path).
	if s.rt.Spec().GPULike && s.rt.Kernel().Free(memsys.Fast) >= 2*pressure {
		return
	}
	for _, id := range plan.EvictAt[l] {
		if _, ok := s.rt.Alloc().Region(id); ok {
			s.rt.MigrateTensor(id, memsys.Slow)
		}
	}
}

// OpStart is unused; migration is layer-driven.
func (s *Sentinel) OpStart(int, *graph.Op) {}

// OpEnd is unused.
func (s *Sentinel) OpEnd(int, *graph.Op) {}

// TensorAllocated records profiling lifetimes during profiling steps. In
// the managed phase it places fresh allocations on fast memory when there
// is room: new tensors carry no data, so placement is a page-table remap,
// not a copy — the allocator may have handed back virtual space whose
// pages were evicted to slow memory earlier.
func (s *Sentinel) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	if s.profiling != nil {
		s.profiling.TensorAllocated(t, r)
		return
	}
	if !s.managed() {
		return
	}
	if s.sampler != nil {
		s.sampler.TensorAllocated(t, r)
	}
	if s.allocTier(t) != memsys.Fast && t.Size >= 1<<20 && !s.short(t.ID) {
		// Large tensor with no room: evict far-future tensors first,
		// as the GPU path does, then retry.
		s.MakeRoom(s.rt, t.Size-s.rt.Kernel().Free(memsys.Fast))
	}
	if s.allocTier(t) == memsys.Fast {
		s.rt.RelocateFresh(r, memsys.Fast)
	}
}

// short reports the profiled short-lived classification of a tensor id,
// defensively false for unprofiled ids.
func (s *Sentinel) short(id tensor.ID) bool {
	return s.cur != nil && s.cur.plan != nil && int(id) < len(s.cur.plan.Short) && s.cur.plan.Short[id]
}

// TensorFreed records profiling lifetimes during profiling steps. In the
// managed phase it reclaims the dead tensor's fast-memory pages: freed
// data needs no copy, so the pages are reassigned to slow memory at zero
// cost, keeping fast memory circulating. Page-level baselines cannot do
// this — the OS has no idea the page contents are dead; this is the
// runtime/OS semantic gap Sentinel bridges.
func (s *Sentinel) TensorFreed(t *tensor.Tensor, r alloc.Region) {
	if s.profiling != nil {
		s.profiling.TensorFreed(t, r)
		return
	}
	if !s.managed() {
		return
	}
	if s.sampler != nil {
		s.sampler.TensorFreed(t, r)
	}
	if s.short(t.ID) {
		return // the pinned pool stays in fast memory by design
	}
	s.rt.Kernel().Relocate(r.Addr, r.Size, memsys.Slow, s.rt.Now())
}

// StepEnd finishes a profiling step by building the variant's plan, and
// advances the test-and-trial state machine on managed steps. On a
// GPU-like machine the preallocated tensors were double-buffered during
// step 0's profiling: the pinned host copy was profiled, and the device
// copy is synchronized once afterwards (Sec. V).
func (s *Sentinel) StepEnd(step int, st *metrics.StepStats) {
	if s.profiling != nil {
		s.finishProfiling(st)
		if step == 0 && s.rt.Spec().GPULike {
			g := s.rt.Graph()
			var prealloc int64
			for _, id := range g.Prealloc {
				prealloc += g.T(id).Size
			}
			s.rt.WaitUntil(s.rt.Now().Add(simtime.TransferTime(prealloc, s.rt.Spec().MigrationBW)))
		}
		return
	}
	if s.sampler != nil {
		s.sampler.StepEnd()
	}
	if !s.cfg.TestAndTrial || s.rt.Spec().GPULike {
		return // shouldWait never consults the trial on GPU-like machines
	}
	switch s.ttState {
	case ttIdle:
		if s.sawCase3 {
			// Trial: next step waits, the one after does not.
			s.ttState = ttTrialWait
			s.waitMode = true
		}
	case ttTrialWait:
		s.waitTime = st.Duration
		s.ttSteps++
		s.ttState = ttTrialNoWait
		s.waitMode = false
	case ttTrialNoWait:
		s.ttSteps++
		s.waitMode = s.waitTime < st.Duration
		s.ttState = ttLocked
	}
}

// buildPlan derives a plan for prof on the machine as it is now
// (rt.Spec() reflects any mid-run capacity shrink): variable-length
// intervals when the config asks for them and no MIL is forced, fixed
// ones otherwise.
func (s *Sentinel) buildPlan(prof *profile.Profile, decomp LayerDecomp) (*Plan, error) {
	if s.cfg.VariableMIL && s.cfg.ForceMIL == 0 {
		return BuildPlanVariable(prof, s.rt.Spec(), decomp)
	}
	return BuildPlan(prof, s.rt.Spec(), decomp, s.cfg.ForceMIL)
}

// finishProfiling assembles the variant's profile, builds its plan, and
// reorganizes allocation (Sec. IV-B): the managed phase resumes with the
// next step.
func (s *Sentinel) finishProfiling(st *metrics.StepStats) {
	prof := s.profiling.Assemble(st)
	s.profiling = nil
	decomp := LayerDecomp{Compute: st.LayerComputeTime, Mem: st.LayerMemTime}
	s.cur.decomp = decomp
	plan, err := s.buildPlan(prof, decomp)
	if err != nil {
		// A profile with no layers cannot occur for validated graphs;
		// degrade to one giant interval rather than crash mid-run.
		plan = &Plan{MIL: 1, NumIntervals: 1, NumLayers: 1,
			Starts: []int{0}, idxOf: []int{0},
			NeedBytes: make([]int64, 1), Needs: make([][]tensor.ID, 1),
			EvictAt: make([][]tensor.ID, 1), Short: make([]bool, len(prof.Tensors))}
	}
	s.cur.setPlan(prof, plan)
	s.cur.pendingReady = make([]simtime.Time, plan.NumIntervals)
	s.cur.missing = make([]int64, plan.NumIntervals)
	for k := range s.cur.missing {
		s.cur.missing[k] = plan.NeedBytes[k] // everything starts in slow memory
	}
	s.rt.Kernel().ResetCounters()
	s.rt.Alloc().Reconfigure(s.managedAllocConfig(s.cur))
}

// managedAllocConfig is the allocator configuration of v's plan, installed
// at every plan change: after v's profiling step, on a return to v from
// another variant, and at an online plan swap. The group closure reads v's
// plan and profile, which change only together with such a Reconfigure.
// Fresh tensors go to fast memory while it has room. Under co-allocation
// they pack by v's group keys (Sec. IV-B), and the short-lived pool is
// pinned only while it is a modest share of fast memory: at extreme batch
// sizes it is left unpinned so it can shrink under pressure (Sec. IV-C
// notes the space can be dynamically shrunk), which is what lets Sentinel
// reach Table V's large batches.
func (s *Sentinel) managedAllocConfig(v *variantState) alloc.Config {
	if !s.cfg.CoAllocate {
		return alloc.Config{Mode: alloc.Packed, Tier: s.allocTier}
	}
	cfg := alloc.Config{
		Mode:  alloc.Grouped,
		Tier:  s.allocTier,
		Group: func(t *tensor.Tensor) string { return v.plan.GroupKey(v.prof, t) },
	}
	if v.plan.Reserve <= s.rt.Spec().Fast.Size/4 {
		cfg.Pin = func(group string) bool { return group == ShortPoolGroup }
	}
	return cfg
}

// allocTier places new tensors: fast memory when there is room (they are
// written immediately; eviction keeps space circulating), otherwise slow.
func (s *Sentinel) allocTier(t *tensor.Tensor) memsys.Tier {
	if s.rt.Kernel().Free(memsys.Fast) >= t.Size {
		return memsys.Fast
	}
	return memsys.Slow
}

// farthestFirst returns the ids of cands in eviction order: next access
// descending, ties in input order. Candidates are collected in evictable
// order, which is ascending tensor id, so ties fall by ascending id. next
// is bounded by twice the layer count, so one stable counting pass over
// its range replaces a comparison sort. The result is never nil.
func farthestFirst(cands []evictCand) []tensor.ID {
	out := make([]tensor.ID, len(cands))
	if len(cands) == 0 {
		return out
	}
	lo, hi := cands[0].next, cands[0].next
	for _, c := range cands[1:] {
		lo, hi = min(lo, c.next), max(hi, c.next)
	}
	// counts[b+1] tallies bucket b = hi-next, so bucket 0 holds the
	// farthest next access; the prefix sum turns counts[b] into bucket
	// b's first output slot.
	counts := make([]int, hi-lo+2)
	for _, c := range cands {
		counts[hi-c.next+1]++
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	for _, c := range cands {
		b := hi - c.next
		out[counts[b]] = c.id
		counts[b]++
	}
	return out
}

// farthestFirstAt returns the evictable tensors that layer l+1 does not
// need, farthest next use first, ties by ascending id. A tensor not used
// again this step has its next use at the next step's allocation.
func (v *variantState) farthestFirstAt(l int) []tensor.ID {
	if v.farthest[l] != nil {
		return v.farthest[l]
	}
	prof := v.prof
	cands := make([]evictCand, 0, len(v.evictable))
	for _, i := range v.evictable {
		ts := &prof.Tensors[i]
		next := ts.NextAccessAfter(l)
		if next == -1 {
			next = prof.NumLayers + ts.AllocLayer // wraps to next step
		}
		if next <= l+1 {
			continue // needed immediately
		}
		cands = append(cands, evictCand{id: ts.ID, next: next})
	}
	v.farthest[l] = farthestFirst(cands)
	return v.farthest[l]
}

// spillAt returns, in profile order, every tensor layer l does not
// access, short-lived ones included: the last-resort list. It is never
// nil once built.
func (v *variantState) spillAt(l int) []tensor.ID {
	if v.spill[l] != nil {
		return v.spill[l]
	}
	ids := make([]tensor.ID, 0, len(v.prof.Tensors))
tensors:
	for i := range v.prof.Tensors {
		ts := &v.prof.Tensors[i]
		for _, a := range ts.PerLayer {
			if a.Layer == l {
				continue tensors
			}
		}
		ids = append(ids, ts.ID)
	}
	v.spill[l] = ids
	return ids
}

// MakeRoom implements exec.Evictor for GPU-like machines (and the CPU
// large-allocation path): coldest long-lived tensors whose next access is
// farthest leave first, ties by ascending tensor id; below the Sec. IV-E
// lower bound, anything not accessed in the current layer spills as a
// last resort. Both walks follow the variant's standing orders for the
// current layer; the runtime skips tensors that are not live.
func (s *Sentinel) MakeRoom(rt *exec.Runtime, need int64) int64 {
	if s.cur == nil || s.cur.prof == nil {
		return 0
	}
	freed := rt.EvictInOrder(s.cur.farthestFirstAt(s.curLayer), need)
	if freed >= need {
		return freed
	}
	// Last resort, below the fast-memory lower bound of Sec. IV-E:
	// spill anything not accessed in the current layer, short-lived
	// tensors included. This is exactly the regime the paper warns
	// causes >20% loss — but it keeps extreme batch sizes trainable
	// (Table V).
	return freed + rt.EvictInOrder(s.cur.spillAt(s.curLayer), need-freed)
}
