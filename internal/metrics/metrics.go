// Package metrics collects per-step and per-run statistics from the
// execution engine: step latency, where time went (compute, memory,
// exposed migration, profiling faults, recomputation), and how many bytes
// moved where. The experiment harness turns these into the paper's tables
// and figures.
package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sentinel/internal/simtime"
)

// StepStats describes one executed training step.
type StepStats struct {
	Step     int
	Duration simtime.Duration
	// ComputeTime and MemTime are the roofline components summed over
	// ops (they overlap; Duration reflects the max per op).
	ComputeTime simtime.Duration
	MemTime     simtime.Duration
	// StallTime is migration time exposed on the critical path:
	// residency stalls on GPU, explicit synchronous migration on CPU.
	StallTime simtime.Duration
	// FaultTime is profiling protection-fault overhead.
	FaultTime simtime.Duration
	// RecomputeTime is time spent re-executing ops instead of swapping
	// (Capuchin).
	RecomputeTime simtime.Duration
	// MigratedIn/Out are bytes moved slow->fast / fast->slow.
	MigratedIn, MigratedOut int64
	// DemandMigrations counts migrations triggered by an access rather
	// than a prefetch decision.
	DemandMigrations int64
	// FastBytes/SlowBytes are demand bytes served by each tier.
	FastBytes, SlowBytes int64
	// Faults counts profiling protection faults.
	Faults int64
	// MigrateRetries counts migration batches that transiently failed
	// and were retried (fault injection).
	MigrateRetries int64
	// Degraded counts tensors downgraded to zero-copy slow-tier access
	// this step, after their migrations were abandoned.
	Degraded int64
	// Diverged marks the step at which the plan-divergence monitor fired.
	Diverged bool
	// PeakMapped is the peak mapped bytes observed during the step.
	PeakMapped int64
	// PeakFastUsed is the peak fast-tier usage observed during the step.
	PeakFastUsed int64
	// LayerTime records the duration of each layer.
	LayerTime []simtime.Duration
	// LayerComputeTime and LayerMemTime decompose each layer into its
	// roofline components; Sentinel's performance model uses them to
	// project layer times onto other tier placements.
	LayerComputeTime []simtime.Duration
	LayerMemTime     []simtime.Duration
}

// MigratedTotal returns total migrated bytes in both directions.
func (s *StepStats) MigratedTotal() int64 { return s.MigratedIn + s.MigratedOut }

// String summarizes the step for logs.
func (s *StepStats) String() string {
	return fmt.Sprintf("step %d: %v (stall %v, fault %v, recompute %v; in %s, out %s; fast %s, slow %s)",
		s.Step, s.Duration, s.StallTime, s.FaultTime, s.RecomputeTime,
		simtime.Bytes(s.MigratedIn), simtime.Bytes(s.MigratedOut),
		simtime.Bytes(s.FastBytes), simtime.Bytes(s.SlowBytes))
}

// RunStats aggregates the steps of one run.
type RunStats struct {
	Policy string
	Model  string
	Batch  int
	Steps  []*StepStats
	// Diverged reports that the run fell back to demand-only mode: the
	// plan-divergence monitor fired (static mode), or the online
	// controller exhausted its recovery options (online mode).
	Diverged bool
	// Replans counts migration-plan rebuilds performed by the online
	// controller (always 0 in static mode).
	Replans int
	// RecoveredSteps counts steps executed in the online controller's
	// recovered state — running on a replacement plan after a divergence.
	RecoveredSteps int
	// ControllerLog records the online controller's state transitions,
	// one "step N: from->to: reason" line each, in order. Deterministic:
	// two runs with identical seeds produce identical logs.
	ControllerLog []string
}

// SteadyStep returns the last step, which policies have warmed up by;
// nil if no steps ran.
func (r *RunStats) SteadyStep() *StepStats {
	if len(r.Steps) == 0 {
		return nil
	}
	return r.Steps[len(r.Steps)-1]
}

// SteadyStepTime returns the duration of the last (steady-state) step.
func (r *RunStats) SteadyStepTime() simtime.Duration {
	if s := r.SteadyStep(); s != nil {
		return s.Duration
	}
	return 0
}

// Throughput returns steady-state samples/second for the run's batch size.
func (r *RunStats) Throughput() float64 {
	d := r.SteadyStepTime()
	if d <= 0 {
		return 0
	}
	return float64(r.Batch) / d.Seconds()
}

// TotalTime sums all step durations.
func (r *RunStats) TotalTime() simtime.Duration {
	var t simtime.Duration
	for _, s := range r.Steps {
		t += s.Duration
	}
	return t
}

// CacheStats is a point-in-time accounting of a sweep's plan cache:
// how many lookups hit a completed entry, missed (and computed), or
// waited on a concurrent computation (singleflight).
type CacheStats struct {
	// Hits counts lookups served by an already-completed entry.
	Hits int64
	// Misses counts lookups that computed a fresh entry.
	Misses int64
	// Waits counts lookups that blocked on another worker's in-flight
	// computation of the same key (singleflight).
	Waits int64
}

// String renders the stats as one summary clause.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d singleflight waits", s.Hits, s.Misses, s.Waits)
}

// SweepProgress tracks an experiment sweep: cells completed out of cells
// scheduled, plus host wall-clock elapsed. It is safe for concurrent use
// by worker-pool goroutines. With a non-nil writer it renders a live
// carriage-return counter; with a nil writer it only counts (for tests and
// non-interactive runs).
type SweepProgress struct {
	mu          sync.Mutex
	w           io.Writer
	start       time.Time
	done, total int
	dirty       bool // a live line is on screen and unterminated
}

// NewSweepProgress starts a progress tracker; w may be nil.
func NewSweepProgress(w io.Writer) *SweepProgress {
	//lint:allow determinism: progress display measures host wall-clock by design; it never feeds simulated quantities
	return &SweepProgress{w: w, start: time.Now()}
}

// AddCells announces n more scheduled cells.
func (p *SweepProgress) AddCells(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += n
}

// CellDone marks one cell complete and refreshes the live line.
func (p *SweepProgress) CellDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if p.w != nil {
		fmt.Fprintf(p.w, "\r%d/%d cells (%v)", p.done, p.total,
			//lint:allow determinism: live progress line shows host elapsed time, not a simulated quantity
			time.Since(p.start).Round(time.Millisecond))
		p.dirty = true
	}
}

// Break terminates the live line (before other output interleaves).
func (p *SweepProgress) Break() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		fmt.Fprintln(p.w)
		p.dirty = false
	}
}

// Snapshot returns cells done and cells scheduled.
func (p *SweepProgress) Snapshot() (done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.total
}

// Summary renders a final one-line accounting of the sweep.
func (p *SweepProgress) Summary() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("%d/%d cells in %v", p.done, p.total,
		//lint:allow determinism: sweep summary reports host elapsed time, not a simulated quantity
		time.Since(p.start).Round(time.Millisecond))
}
