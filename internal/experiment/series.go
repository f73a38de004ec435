package experiment

import (
	"fmt"

	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
)

// Fig9Series produces the raw bandwidth-over-time series behind Figure 9:
// per-5ms buckets of fast-tier, slow-tier, and migration traffic for one
// steady-state ResNet-32 step under each policy. Returned as a long-form
// table (policy, t_ms, fast_GBps, slow_GBps, migration_GBps) suitable for
// plotting; `cmd/sentinel-bench -exp fig9series -format csv` dumps it.
func Fig9Series(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig9series",
		Title:  "bandwidth trace series during resnet32 training (one steady step)",
		Header: []string{"policy", "t_ms", "fast_GBps", "slow_GBps", "migration_GBps"},
	}
	spec, _, err := o.fastSized(memsys.OptaneHM(), "resnet32", 128)
	if err != nil {
		return nil, err
	}
	const width = 5 * simtime.Millisecond
	pols := []string{"ial", "sentinel"}
	cells := make([]cellRun, len(pols))
	for i, p := range pols {
		cells[i] = cellRun{model: "resnet32", batch: 128, spec: spec,
			policy: p, steps: o.steps(), trace: width}
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	for i, p := range pols {
		st := runs[i].SteadyStep()
		if st.Trace == nil {
			continue
		}
		sec := width.Seconds()
		for i, s := range st.Trace.Samples() {
			if s.FastBytes == 0 && s.SlowBytes == 0 && s.Migrations == 0 {
				continue
			}
			t.AddRow(p,
				fmt.Sprintf("%d", i*int(width.Milliseconds())),
				fmt.Sprintf("%.2f", float64(s.FastBytes)/sec/1e9),
				fmt.Sprintf("%.2f", float64(s.SlowBytes)/sec/1e9),
				fmt.Sprintf("%.2f", float64(s.Migrations)/sec/1e9))
		}
	}
	t.AddNote("traces cover the whole run; the time axis is cumulative virtual time, so the last step's buckets sit at the end")
	return t, nil
}
