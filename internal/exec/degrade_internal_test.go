package exec

import (
	"testing"

	"sentinel/internal/metrics"
)

// TestMonitorBaselineResetAfterSwap is the regression test for the stale
// best-step baseline: the monitor's "what the plan predicts" stand-in is
// the best step observed so far, which after a plan swap belongs to the
// *old* plan. A replacement plan that legitimately needs more demand
// migrations than the old plan's best step would be mis-flagged — and the
// controller would flap straight back into recovery — unless the swap
// resets the baseline (which controllerStep does via reset()).
func TestMonitorBaselineResetAfterSwap(t *testing.T) {
	m := divMonitor{bestDemand: -1}
	step := func(demand int64) *metrics.StepStats {
		return &metrics.StepStats{Duration: 100, DemandMigrations: demand}
	}

	if bad, _ := m.flagged(step(2)); bad {
		t.Fatal("baseline-learning step flagged")
	}
	if bad, _ := m.flagged(step(50)); !bad {
		t.Fatal("25x the best step not flagged")
	}

	// The new plan's normal step: more demand than the old plan's best,
	// but healthy for the plan actually running.
	swapped := step(10)
	if bad, _ := m.flagged(swapped); !bad {
		t.Fatal("precondition lost: stale baseline no longer mis-flags the new plan")
	}
	m.reset()
	if bad, detail := m.flagged(swapped); bad {
		t.Fatalf("post-swap step mis-flagged against the old plan's baseline: %s", detail)
	}
	if m.bestDemand != 10 {
		t.Fatalf("baseline after reset = %d, want the new plan's level (10)", m.bestDemand)
	}
	if m.bad != 0 {
		t.Fatalf("window evidence survived reset: bad = %d", m.bad)
	}
}
