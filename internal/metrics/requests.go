package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// RequestStats counts the serving layer's request lifecycle: admissions,
// rejections, completions, failures, the in-flight gauge, and host
// wall-clock latency. It is safe for concurrent use by HTTP handler
// goroutines. Latency here is deliberately *host* time — it measures the
// service, not the simulation — so it lives beside SweepProgress at the
// edge of the determinism boundary; simulated quantities never flow
// through it.
type RequestStats struct {
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	inFlight  atomic.Int64
	latencyNS atomic.Int64
	maxNS     atomic.Int64

	// Adaptive-controller outcomes, aggregated over every simulated run
	// this service has executed (ObserveRun). These are simulated-run
	// facts, not host time, but they are already committed counts by the
	// time a run returns — summing them here cannot leak wall-clock back
	// into a simulation.
	replans       atomic.Int64
	recoveredRuns atomic.Int64
	demandOnly    atomic.Int64
}

// ObserveRun folds one finished simulated run's controller outcomes into
// the service-level counters: total mid-run replans, runs that recovered
// at least one step after a plan swap, and runs that ended degraded to
// demand-only paging.
func (s *RequestStats) ObserveRun(r *RunStats) {
	if r == nil {
		return
	}
	s.replans.Add(int64(r.Replans))
	if r.RecoveredSteps > 0 {
		s.recoveredRuns.Add(1)
	}
	if r.Diverged {
		s.demandOnly.Add(1)
	}
}

// Reject counts one request turned away by admission control.
func (s *RequestStats) Reject() { s.rejected.Add(1) }

// Begin counts one admitted request entering execution.
func (s *RequestStats) Begin() {
	s.accepted.Add(1)
	s.inFlight.Add(1)
}

// End counts one admitted request finishing after elapsed host time; ok
// distinguishes a served response from a failed one. Every Begin must be
// paired with exactly one End.
func (s *RequestStats) End(elapsed time.Duration, ok bool) {
	s.inFlight.Add(-1)
	if ok {
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}
	ns := elapsed.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	s.latencyNS.Add(ns)
	for {
		cur := s.maxNS.Load()
		if ns <= cur || s.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// RequestSnapshot is a point-in-time copy of a RequestStats.
type RequestSnapshot struct {
	// Accepted counts requests admitted past admission control.
	Accepted int64
	// Rejected counts requests turned away (saturated queue or draining).
	Rejected int64
	// Completed and Failed partition finished requests by outcome.
	Completed, Failed int64
	// InFlight is the current gauge of admitted, unfinished requests.
	InFlight int64
	// LatencyTotal sums host wall-clock latency over finished requests;
	// LatencyMax is the slowest single request.
	LatencyTotal, LatencyMax time.Duration
	// Replans totals the adaptive controller's mid-run plan rebuilds;
	// RecoveredRuns counts runs that recovered after a plan swap;
	// DemandOnlyRuns counts runs that ended degraded to demand paging.
	Replans, RecoveredRuns, DemandOnlyRuns int64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *RequestStats) Snapshot() RequestSnapshot {
	return RequestSnapshot{
		Accepted:       s.accepted.Load(),
		Rejected:       s.rejected.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		InFlight:       s.inFlight.Load(),
		LatencyTotal:   time.Duration(s.latencyNS.Load()),
		LatencyMax:     time.Duration(s.maxNS.Load()),
		Replans:        s.replans.Load(),
		RecoveredRuns:  s.recoveredRuns.Load(),
		DemandOnlyRuns: s.demandOnly.Load(),
	}
}

// MeanLatency is LatencyTotal over finished requests; 0 before any finish.
func (s RequestSnapshot) MeanLatency() time.Duration {
	n := s.Completed + s.Failed
	if n == 0 {
		return 0
	}
	return s.LatencyTotal / time.Duration(n)
}

// String renders the snapshot as one summary clause.
func (s RequestSnapshot) String() string {
	return fmt.Sprintf("%d accepted (%d ok, %d failed, %d in flight), %d rejected; mean %v, max %v",
		s.Accepted, s.Completed, s.Failed, s.InFlight, s.Rejected,
		s.MeanLatency().Round(time.Microsecond), s.LatencyMax.Round(time.Microsecond))
}
