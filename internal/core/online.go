package core

// The incremental replanner: Sentinel's half of the online controller's
// detect -> re-profile -> replan -> recover loop (exec.Reprofiler). The
// controller decides *when* to sample and swap; this file implements the
// *how* — sampled re-poisoning through profile.Sampler, a blended profile
// from decayed old and freshly observed counts, a plan rebuilt through the
// ordinary BuildPlan path against the machine as it is *now* (a shrunk
// fast tier replans smaller), and a hot swap at a step boundary that
// reuses live placements so only the placement delta migrates.

import (
	"fmt"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// ReprofileStart arms a sampled re-profiling round (exec.Reprofiler). It
// refuses while the initial profiling step is still in flight or before a
// plan exists — the controller falls back to demand-only mode then.
func (s *Sentinel) ReprofileStart(round int) bool {
	if s.profiling != nil || s.cur == nil || s.cur.plan == nil || s.cur.prof == nil {
		return false
	}
	sp := profile.NewSampler(s.rt, s.cur.prof, round, exec.SampleEvery)
	if sp == nil {
		return false
	}
	s.sampler = sp
	return true
}

// Replan finishes the sampling round, rebuilds the migration plan from
// blended access counts, and hot-swaps it (exec.Reprofiler). On error the
// old plan stays in effect and the controller degrades.
func (s *Sentinel) Replan(round int) error {
	if s.sampler == nil {
		return fmt.Errorf("core: replan round %d without an active sampling round", round)
	}
	obs := s.sampler.Finish()
	s.sampler = nil
	blended := profile.Blend(s.cur.prof, obs, exec.Decay)
	// buildPlan sizes the replacement plan for the fast tier that exists
	// now, after any mid-run capacity shrink.
	plan, err := s.buildPlan(blended, s.cur.decomp)
	if err != nil {
		return fmt.Errorf("core: rebuild plan: %w", err)
	}
	s.swapPlan(blended, plan, round)
	return nil
}

// swapPlan installs a replacement plan at a step boundary. Live placements
// are reused: the per-interval missing bytes are seeded from what is
// actually *not* fast-resident right now, so the next prefetches move only
// the delta between the old plan's placements and the new plan's needs.
// Like every plan change it installs the plan's allocator configuration,
// so fresh allocations pack by the blended profile's groups and the
// short-pool pin is decided again for the fast tier as it is now.
func (s *Sentinel) swapPlan(p *profile.Profile, plan *Plan, round int) {
	kern := s.rt.Kernel()
	now := s.rt.Now()
	var delta int64
	seen := make([]bool, len(p.Tensors))
	missing := make([]int64, plan.NumIntervals)
	for k := range plan.Needs {
		for _, id := range plan.Needs[k] {
			r, ok := s.rt.Alloc().Region(id)
			if !ok {
				continue // produced later in the step
			}
			movable := kern.MigrateStats(r.Addr, r.Size, memsys.Fast, now)
			missing[k] += movable
			if movable > 0 && !seen[id] {
				seen[id] = true
				delta += movable
			}
		}
	}
	s.cur.setPlan(p, plan)
	s.cur.pendingReady = make([]simtime.Time, plan.NumIntervals)
	s.cur.missing = missing
	s.rt.Alloc().Reconfigure(s.managedAllocConfig(s.cur))
	s.rt.Emit(trace.Event{At: now, Kind: trace.KPlanSwap, Tensor: trace.NoTensor,
		Name: plan.String(), Count: int64(round), Bytes: delta})
}
