package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DistStats counts the distributed-sweep coordination lifecycle: shard
// leases granted, leases lost to dead or unresponsive workers, shards
// reassigned to survivors, workers declared dead, and a per-worker
// gauge of shards currently in flight. It is safe for concurrent use by
// the coordinator's supervision goroutines, and the worker-side lease
// registry in internal/serve shares the same type, which its /metrics
// endpoint renders.
//
// Like RequestStats, these are host-side service counters: they live at
// the edge of the determinism boundary and never feed a simulated
// quantity.
type DistStats struct {
	granted    atomic.Int64
	expired    atomic.Int64
	reassigned atomic.Int64
	deaths     atomic.Int64

	mu       sync.Mutex
	inFlight map[string]int // shards currently leased, per worker
}

// LeaseGranted counts one shard lease handed to worker and raises the
// worker's in-flight gauge.
func (s *DistStats) LeaseGranted(worker string) {
	s.granted.Add(1)
	s.addInFlight(worker, 1)
}

// LeaseExpired counts one lease lost — worker crash, hang, or missed
// heartbeats — and lowers the worker's in-flight gauge.
func (s *DistStats) LeaseExpired(worker string) {
	s.expired.Add(1)
	s.addInFlight(worker, -1)
}

// LeaseDone lowers the worker's in-flight gauge for a shard that
// completed and handed its journal back.
func (s *DistStats) LeaseDone(worker string) { s.addInFlight(worker, -1) }

// Reassigned counts one expired shard re-leased to a surviving worker.
func (s *DistStats) Reassigned() { s.reassigned.Add(1) }

// WorkerDied counts one worker declared dead by the coordinator.
func (s *DistStats) WorkerDied(worker string) { s.deaths.Add(1) }

func (s *DistStats) addInFlight(worker string, delta int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inFlight == nil {
		s.inFlight = map[string]int{}
	}
	n := s.inFlight[worker] + delta
	if n <= 0 {
		// Drop zeroed entries so the gauge map stays proportional to
		// *active* workers (and a retired worker's label disappears
		// from /metrics).
		delete(s.inFlight, worker)
		return
	}
	s.inFlight[worker] = n
}

// WorkerInFlight is one worker's in-flight shard count.
type WorkerInFlight struct {
	Worker   string
	InFlight int
}

// DistSnapshot is a point-in-time copy of a DistStats.
type DistSnapshot struct {
	// Granted counts every lease handed out, including re-grants after
	// reassignment.
	Granted int64
	// Expired counts leases lost to worker crash, hang, or partition.
	Expired int64
	// Reassigned counts expired shards re-leased to a survivor.
	Reassigned int64
	// WorkerDeaths counts workers the coordinator declared dead.
	WorkerDeaths int64
	// InFlight lists per-worker leased-shard gauges, sorted by worker
	// name for deterministic rendering.
	InFlight []WorkerInFlight
}

// Snapshot returns a point-in-time copy of the counters.
func (s *DistStats) Snapshot() DistSnapshot {
	snap := DistSnapshot{
		Granted:      s.granted.Load(),
		Expired:      s.expired.Load(),
		Reassigned:   s.reassigned.Load(),
		WorkerDeaths: s.deaths.Load(),
	}
	s.mu.Lock()
	workers := make([]string, 0, len(s.inFlight))
	for w := range s.inFlight {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		snap.InFlight = append(snap.InFlight, WorkerInFlight{Worker: w, InFlight: s.inFlight[w]})
	}
	s.mu.Unlock()
	return snap
}

// String renders the snapshot as one summary clause for the
// coordinator's end-of-sweep report.
func (s DistSnapshot) String() string {
	return fmt.Sprintf("%d leases granted, %d expired, %d reassigned, %d worker death(s)",
		s.Granted, s.Expired, s.Reassigned, s.WorkerDeaths)
}
