package memsys

import (
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// BWSample is one bucket of a bandwidth trace: bytes moved per tier during
// [Start, Start+Width).
type BWSample struct {
	Start      simtime.Time
	FastBytes  int64
	SlowBytes  int64
	Migrations int64 // bytes moved between tiers in this bucket
}

// BWTrace accumulates per-tier traffic into fixed-width time buckets,
// producing the bandwidth-over-time series of the paper's Figure 9.
type BWTrace struct {
	width   simtime.Duration
	samples []BWSample
}

// NewBWTrace returns a trace with the given bucket width.
func NewBWTrace(width simtime.Duration) *BWTrace {
	if width <= 0 {
		width = simtime.Millisecond
	}
	return &BWTrace{width: width}
}

func (tr *BWTrace) bucket(at simtime.Time) *BWSample {
	idx := int(int64(at) / int64(tr.width))
	if idx < 0 {
		idx = 0
	}
	for len(tr.samples) <= idx {
		tr.samples = append(tr.samples, BWSample{
			Start: simtime.Time(int64(len(tr.samples)) * int64(tr.width)),
		})
	}
	return &tr.samples[idx]
}

// AddAccess records n bytes of demand traffic served by tier at instant at.
func (tr *BWTrace) AddAccess(at simtime.Time, tier Tier, n int64) {
	b := tr.bucket(at)
	if tier == Fast {
		b.FastBytes += n
	} else {
		b.SlowBytes += n
	}
}

// AddMigration records n bytes of migration traffic at instant at.
// Migration traffic touches both tiers; it is tracked separately so demand
// and migration bandwidth can be distinguished.
func (tr *BWTrace) AddMigration(at simtime.Time, n int64) {
	tr.bucket(at).Migrations += n
}

// Consume folds one unified trace event into the bucketed series: access
// events add demand traffic to their tier, migration events add migration
// traffic; every other kind is ignored. This makes BWTrace a consumer of
// the internal/trace event stream rather than a parallel sink — the
// Fig. 9 bandwidth-over-time series is derived from the same events the
// exporters see.
func (tr *BWTrace) Consume(e trace.Event) {
	switch e.Kind {
	case trace.KAccess:
		tier := Slow
		if e.Tier == trace.TierFast {
			tier = Fast
		}
		tr.AddAccess(e.At, tier, e.Bytes)
	case trace.KMigrateIn, trace.KMigrateOut:
		tr.AddMigration(e.At, e.Bytes)
	}
}

// Samples returns the accumulated buckets in time order.
func (tr *BWTrace) Samples() []BWSample { return tr.samples }

// Width returns the bucket width.
func (tr *BWTrace) Width() simtime.Duration { return tr.width }

// Totals sums demand traffic over the whole trace.
func (tr *BWTrace) Totals() (fast, slow, migrated int64) {
	for _, s := range tr.samples {
		fast += s.FastBytes
		slow += s.SlowBytes
		migrated += s.Migrations
	}
	return fast, slow, migrated
}

// MeanBW reports the mean demand bandwidth per tier in bytes/second over
// the span of the trace; zero if the trace is empty.
func (tr *BWTrace) MeanBW() (fastBW, slowBW float64) {
	if len(tr.samples) == 0 {
		return 0, 0
	}
	fast, slow, _ := tr.Totals()
	span := simtime.Duration(len(tr.samples)) * tr.width
	sec := span.Seconds()
	if sec <= 0 {
		return 0, 0
	}
	return float64(fast) / sec, float64(slow) / sec
}
