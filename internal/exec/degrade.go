package exec

import (
	"fmt"

	"sentinel/internal/alloc"
	"sentinel/internal/chaos"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// ErrCapacityShrunk wraps ErrOOM for out-of-memory failures that occurred
// after the fast tier lost capacity mid-run: the plan was sized for a
// machine that no longer exists. errors.Is(err, ErrOOM) still holds, so
// capacity-probing callers behave unchanged.
var ErrCapacityShrunk = fmt.Errorf("fast capacity shrunk mid-run: %w", ErrOOM)

// Migration retry budget and backoff cap shared by the prefetch and
// demand paths.
const (
	maxMigrateAttempts = 4
	maxRetryBackoff    = simtime.Millisecond
)

// WithChaos attaches a fault injector to the runtime. A nil injector (the
// result of chaos.New on a disabled config) attaches nothing, keeping the
// zero-knob run byte-identical to a clean one. A live injector also arms
// the controller with no replan budget, unless WithOnline armed it.
func WithChaos(in *chaos.Injector) Option {
	return func(rt *Runtime) { rt.chaos = in }
}

// Chaos returns the attached fault injector, nil when none. Layers above
// the engine (the profiler) consult it for their own perturbations.
func (rt *Runtime) Chaos() *chaos.Injector { return rt.chaos }

// The divergence judgement. The monitor has no oracle: it judges each
// step against the best step observed so far, which a valid static plan
// keeps representative. Demand migrations measure exactly what a plan is
// for (tensors the prefetch schedule failed to have resident), where
// exposed stall time cannot tell a stale plan from a slow platform: at a
// fifth of peak fast memory on GPU a healthy plan stalls for most of its
// step.
const (
	// divDemandFactor flags a step with more than this many times the
	// best observed step's demand migrations.
	divDemandFactor = 4
	// divMinDemand is the floor below which demand-migration counts are
	// never flagged (quiet plans have noisy small counts).
	divMinDemand = 8
	// divWindow is how many consecutive flagged steps it takes to
	// declare divergence; isolated bad steps are tolerated.
	divWindow = 2
)

// divMonitor accumulates the divergence evidence across steps.
type divMonitor struct {
	// bestDemand is the fewest demand migrations any step has needed so
	// far (-1 before the first step) — the monitor's stand-in for "what
	// the plan predicts".
	bestDemand int64
	bad        int
}

// flagged judges one step against the monitor's thresholds and updates
// the best-step baseline. The returned detail is non-empty exactly when
// the step is flagged; the controller owns the windowing.
func (m *divMonitor) flagged(st *metrics.StepStats) (bool, string) {
	var detail string
	if m.bestDemand >= 0 && st.DemandMigrations >= divMinDemand &&
		st.DemandMigrations > divDemandFactor*m.bestDemand {
		detail = fmt.Sprintf("%d demand migrations vs best %d", st.DemandMigrations, m.bestDemand)
	}
	if m.bestDemand < 0 || st.DemandMigrations < m.bestDemand {
		m.bestDemand = st.DemandMigrations
	}
	return detail != "", detail
}

// reset discards the monitor's accumulated evidence and baseline — called
// after a plan swap, when the best step of the *old* plan would mis-flag
// the new one.
func (m *divMonitor) reset() {
	m.bestDemand = -1
	m.bad = 0
}

// noteRetry accounts one transiently failed migration batch.
func (rt *Runtime) noteRetry(id tensor.ID, name string, n int64, attempt int) {
	if rt.st != nil {
		rt.st.MigrateRetries++
	}
	rt.emit(trace.Event{At: rt.now, Kind: trace.KMigrateRetry, Tensor: id, Name: name,
		Bytes: n, Count: int64(attempt)})
}

// degradeTensor permanently downgrades one tensor to in-place (zero-copy)
// slow-tier access: the engine stops migrating it and ops read it over
// the interconnect, trading bandwidth for forward progress.
func (rt *Runtime) degradeTensor(t *tensor.Tensor, reason int64) {
	if n := int(t.ID) + 1; n > len(rt.degraded) {
		rt.degraded = append(rt.degraded, make([]bool, n-len(rt.degraded))...)
	}
	rt.degraded[t.ID] = true
	if rt.st != nil {
		rt.st.Degraded++
	}
	rt.emit(trace.Event{At: rt.now, Kind: trace.KDegrade, Tensor: t.ID, Name: t.Name, Count: reason})
}

// isDegraded reports whether degradeTensor downgraded the tensor.
func (rt *Runtime) isDegraded(id tensor.ID) bool {
	return id >= 0 && int(id) < len(rt.degraded) && rt.degraded[id]
}

// demandMigrate is MigrateUrgent under fault injection: a transiently
// failed batch wastes the urgent channel path (the bytes crossed and were
// thrown away), then the engine backs off — the wasted transfer plus an
// exponentially growing pause, capped — and retries. After the retry
// budget it reports the migration abandoned (ok false), and the caller
// degrades the tensor to zero-copy access.
func (rt *Runtime) demandMigrate(r alloc.Region, t *tensor.Tensor) (done simtime.Time, moved, short int64, ok bool) {
	for attempt := 1; ; attempt++ {
		if !rt.chaos.MigrateBatchFails() {
			done, moved, short = rt.k.MigrateUrgent(r.Addr, r.Size, memsys.Fast, rt.now)
			return done, moved, short, true
		}
		n := rt.k.MigrateStats(r.Addr, r.Size, memsys.Fast, rt.now)
		if n == 0 {
			return rt.now, 0, 0, true
		}
		wasted := rt.k.ChargeChannel(memsys.Fast, n, rt.now, true)
		rt.noteRetry(t.ID, t.Name, n, attempt)
		pause := rt.spec.DemandFaultCost << (attempt - 1)
		if pause > maxRetryBackoff {
			pause = maxRetryBackoff
		}
		rt.WaitUntil(wasted.Add(pause))
		if attempt >= maxMigrateAttempts {
			return rt.now, 0, 0, false
		}
	}
}

// oomErr returns the sentinel to wrap out-of-fast-memory failures with:
// plain ErrOOM normally, ErrCapacityShrunk once the fast tier has been
// shrunk mid-run (which still satisfies errors.Is(err, ErrOOM)).
func (rt *Runtime) oomErr() error {
	if rt.shrunk {
		return ErrCapacityShrunk
	}
	return ErrOOM
}
