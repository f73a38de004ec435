package experiment

import (
	"fmt"
	"slices"
	"sync"

	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// Fig9Series produces the raw bandwidth-over-time series behind Figure 9:
// per-5ms buckets of fast-tier, slow-tier, and migration traffic for one
// steady-state ResNet-32 step under each policy. Returned as a long-form
// table (policy, t_ms, fast_GBps, slow_GBps, migration_GBps) suitable for
// plotting; `cmd/sentinel-bench -exp fig9series -format csv` dumps it.
//
// The series is read off the trace bus: the same access and migration
// events a Chrome trace shows, summed into buckets. Its two cells run
// uncached on a private bus, since a cached result carries no events; when
// Options.Trace is set, every event is forwarded there as well.
func Fig9Series(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig9series",
		Title:  "bandwidth trace series during resnet32 training (one steady step)",
		Header: []string{"policy", "t_ms", "fast_GBps", "slow_GBps", "migration_GBps"},
	}
	cells, err := fig9Cells(o)
	if err != nil {
		return nil, err
	}
	sec := fig9Width.Seconds()
	for _, c := range cells {
		// A quarantined cell's placeholder has a zeroed steady step and
		// its events, if any, are partial; the footer explains the gap.
		if c.run.SteadyStep().Duration == 0 {
			continue
		}
		for i, b := range c.buckets {
			if b == (bwBucket{}) {
				continue
			}
			t.AddRow(c.policy,
				fmt.Sprintf("%d", i*int(fig9Width.Milliseconds())),
				fmt.Sprintf("%.2f", float64(b.fast)/sec/1e9),
				fmt.Sprintf("%.2f", float64(b.slow)/sec/1e9),
				fmt.Sprintf("%.2f", float64(b.migrated)/sec/1e9))
		}
	}
	t.AddNote("rows are the last (steady) step's non-empty 5 ms buckets; t_ms is virtual time since the run began, so the first row is where that step starts")
	return t, nil
}

// fig9Width is the bucket width of the Fig. 9 series.
const fig9Width = 5 * simtime.Millisecond

// fig9Cell is one policy's Fig. 9 run and its steady step's series.
type fig9Cell struct {
	policy  string
	run     *metrics.RunStats
	buckets []bwBucket
}

// fig9Cells runs Fig. 9's ial and sentinel cells uncached on a private
// bus and buckets their steady step's traffic.
func fig9Cells(o Options) ([]fig9Cell, error) {
	spec, _, err := o.fastSized(memsys.OptaneHM(), "resnet32", 128)
	if err != nil {
		return nil, err
	}
	pols := []string{"ial", "sentinel"}
	cells := make([]cellRun, len(pols))
	for i, p := range pols {
		cells[i] = o.withChaos(cellRun{model: "resnet32", batch: 128, spec: spec,
			policy: p, steps: o.steps()})
	}
	series := &bwSeries{step: o.steps() - 1, runs: map[string][]bwBucket{}}
	// Nothing reads the ring; the subscriber is the bus's consumer.
	bus := trace.NewBus(1)
	fwd := o.Trace
	bus.Subscribe(func(e trace.Event) {
		series.consume(e)
		if fwd != nil {
			fwd.Emit(e)
		}
	})
	o.Trace, o.NoCache = bus, true
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	out := make([]fig9Cell, len(pols))
	for i, p := range pols {
		out[i] = fig9Cell{policy: p, run: runs[i], buckets: series.buckets(cells[i].label())}
	}
	return out, nil
}

// bwBucket is the traffic of one window of virtual time, in bytes:
// demand bytes served by each tier, and bytes migrated either way.
type bwBucket struct{ fast, slow, migrated int64 }

// bwSeries sums one step's access, migrate-in and migrate-out events into
// windows of virtual time (window e.At/fig9Width), per run label.
type bwSeries struct {
	step int

	// mu guards runs: a cell abandoned past its deadline keeps emitting
	// while the table is assembled.
	mu   sync.Mutex
	runs map[string][]bwBucket
}

// consume folds one bus event into its run's series.
func (s *bwSeries) consume(e trace.Event) {
	if e.Step != s.step || (e.Kind != trace.KAccess && e.Kind != trace.KMigrateIn && e.Kind != trace.KMigrateOut) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := int(int64(e.At) / int64(fig9Width))
	bs := s.runs[e.Run]
	if len(bs) <= i {
		bs = append(bs, make([]bwBucket, i+1-len(bs))...)
		s.runs[e.Run] = bs
	}
	b := &bs[i]
	switch {
	case e.Kind != trace.KAccess:
		b.migrated += e.Bytes
	case e.Tier == trace.TierFast:
		b.fast += e.Bytes
	default:
		b.slow += e.Bytes
	}
}

// buckets returns a copy of run's series, in time order from 0.
func (s *bwSeries) buckets(run string) []bwBucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.runs[run])
}
