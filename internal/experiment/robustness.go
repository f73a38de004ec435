package experiment

import (
	"fmt"

	"sentinel/internal/chaos"
	"sentinel/internal/memsys"
)

// Robustness sweeps fault-injection levels against the Sentinel policy
// and reports the slowdown over the clean run — the perturbation curve
// the paper never measures. Each row is one fault class at one level, all
// with the same fixed seed, so the table is deterministic and comparable
// across revisions. The plan survives when the slowdown column stays
// modest; divergence and degradation are called out per row.
func Robustness(o Options) (*Table, error) {
	const (
		modelName = "resnet32"
		batch     = 128
		seed      = 42
	)
	t := &Table{
		ID:     "robustness",
		Title:  fmt.Sprintf("slowdown under fault injection (%s, Optane HM, fast = 20%% of peak, sentinel, seed %d)", modelName, seed),
		Header: []string{"fault", "steady step", "vs clean", "retries", "demand", "degraded"},
	}
	spec, _, err := o.fastSized(memsys.OptaneHM(), modelName, batch)
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name string
		cfg  chaos.Config
	}{
		{"clean", chaos.Config{}},
		{"profile noise 10%", chaos.Config{Seed: seed, ProfileNoise: 0.1}},
		{"profile noise 30%", chaos.Config{Seed: seed, ProfileNoise: 0.3}},
		{"profile noise 50%", chaos.Config{Seed: seed, ProfileNoise: 0.5}},
		{"migrate fail 10%", chaos.Config{Seed: seed, MigrateFail: 0.1}},
		{"migrate fail 30%", chaos.Config{Seed: seed, MigrateFail: 0.3}},
		{"migrate slow 50%", chaos.Config{Seed: seed, MigrateSlow: 0.5}},
		{"shrink 25% at step 1", chaos.Config{Seed: seed, ShrinkAtStep: 1, ShrinkFrac: 0.25}},
		{"compute jitter 20%", chaos.Config{Seed: seed, ComputeJitter: 0.2}},
	}
	if o.Quick {
		rows = []struct {
			name string
			cfg  chaos.Config
		}{rows[0], rows[2], rows[5], rows[7]}
	}
	cells := make([]cellRun, len(rows))
	for i, r := range rows {
		cells[i] = cellRun{model: modelName, batch: batch, spec: spec,
			policy: "sentinel", steps: o.steps(), chaos: r.cfg}
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	clean := runs[0].SteadyStepTime()
	for i, r := range rows {
		run := runs[i]
		var retries, degraded int64
		for _, st := range run.Steps {
			retries += st.MigrateRetries
			degraded += st.Degraded
		}
		d := run.SteadyStepTime()
		slowdown := "n/a"
		if clean > 0 {
			slowdown = fmt.Sprintf("%+.2f%%", 100*(float64(d)/float64(clean)-1))
		}
		degCol := fmt.Sprintf("%d", degraded)
		if run.Diverged {
			degCol += " (diverged)"
		}
		t.AddRow(r.name, d.String(), slowdown,
			fmt.Sprintf("%d", retries),
			fmt.Sprintf("%d", run.SteadyStep().DemandMigrations), degCol)
	}
	t.AddNote("retries/degraded are totals over %d steps; demand is the steady step's count", o.steps())
	t.AddNote("identical seeds reproduce every row byte-for-byte; the clean row is byte-identical to a run without the chaos layer")
	return t, nil
}
