package experiment

import (
	"fmt"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
)

// onlineDivergence is the divergence judgement the online-robustness
// experiment arms: demand migrations only. On the GPU platform with fast
// memory at a fraction of peak, even a perfect plan exposes large
// migration stalls (the machine is interconnect-bound), so the static
// ladder's stall-fraction check conflates platform load with plan
// mismatch. Demand migrations measure exactly what a plan is for —
// tensors the prefetch schedule failed to have resident — and drop back
// below the floor when a replacement plan fits, which is what lets the
// controller settle instead of flapping.
func onlineDivergence() exec.DivergenceConfig {
	return exec.DivergenceConfig{StallFrac: 0, DemandFactor: 4, MinDemand: 8, Window: 2}
}

// onlineConfig is the controller configuration of the online-robustness
// experiment: the enabled defaults with the demand-only judgement above.
func onlineConfig() exec.OnlineConfig {
	c := exec.DefaultOnline()
	c.Div = onlineDivergence()
	return c
}

// onlineSteps is how long each cell runs: the recovery loop needs the
// divergence window, the suspect dwell, the sampling round, and the
// cooldown to all play out, plus settled steps after — about twice the
// default sweep length.
const onlineSteps = 12

// OnlineRobustness measures how much of the static plan's degradation the
// adaptive controller wins back (the detect -> re-profile -> replan ->
// recover loop closed end to end). Each ladder rung runs three ways on
// the GPU platform: clean (no faults, static plan), static-degraded
// (faults injected, the controller with no replan budget detects
// divergence only to fall back to demand paging), and online (same faults, the controller
// re-profiles and replans mid-run). The "gap recovered" column is the
// share of the static-degraded-vs-clean slowdown the online run wins
// back; the recovery target is at least half the gap on the replanning
// rungs.
func OnlineRobustness(o Options) (*Table, error) {
	const (
		modelName = "resnet32"
		batch     = 128
		seed      = 42
	)
	t := &Table{
		ID:     "online-robustness",
		Title:  fmt.Sprintf("online recovery under fault injection (%s, GPU HM, fast = 20%% of peak, sentinel-gpu, seed %d)", modelName, seed),
		Header: []string{"fault", "clean step", "static step", "online step", "gap recovered", "replans", "recovered steps", "demand static/online"},
	}
	// The GPU rungs of the robustness ladder: the divergence signals the
	// controller consumes (demand migrations, residency stalls) only
	// exist on GPU-like machines, where ops require fast-tier residency.
	spec, _, err := o.fastSized(memsys.GPUHM(), modelName, batch)
	if err != nil {
		return nil, err
	}
	rungs := []struct {
		name string
		cfg  chaos.Config
	}{
		{"profile noise 50%", chaos.Config{Seed: seed, ProfileNoise: 0.5}},
		{"shrink 25% at step 1", chaos.Config{Seed: seed, ShrinkAtStep: 1, ShrinkFrac: 0.25}},
		{"migrate fail 30%", chaos.Config{Seed: seed, MigrateFail: 0.3}},
		{"migrate slow 50%", chaos.Config{Seed: seed, MigrateSlow: 0.5}},
	}
	if o.Quick {
		rungs = rungs[:2]
	}
	steps := o.steps()
	if steps < onlineSteps {
		steps = onlineSteps
	}
	oc := onlineConfig()
	cells := []cellRun{{model: modelName, batch: batch, spec: spec,
		policy: "sentinel-gpu", steps: steps}}
	for _, r := range rungs {
		cells = append(cells,
			cellRun{model: modelName, batch: batch, spec: spec,
				policy: "sentinel-gpu", steps: steps, chaos: r.cfg},
			cellRun{model: modelName, batch: batch, spec: spec,
				policy: "sentinel-gpu", steps: steps, chaos: r.cfg, online: oc})
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	clean := runs[0].SteadyStepTime()
	for i, r := range rungs {
		static, online := runs[1+2*i], runs[2+2*i]
		s, on := static.SteadyStepTime(), online.SteadyStepTime()
		recovered := "n/a"
		if gap := s - clean; gap > 0 {
			recovered = fmt.Sprintf("%.0f%%", 100*float64(s-on)/float64(gap))
		}
		t.AddRow(r.name, clean.String(), s.String(), on.String(), recovered,
			fmt.Sprintf("%d", online.Replans),
			fmt.Sprintf("%d", online.RecoveredSteps),
			fmt.Sprintf("%d/%d", static.SteadyStep().DemandMigrations,
				online.SteadyStep().DemandMigrations))
	}
	t.AddNote("gap recovered = (static - online) / (static - clean) steady-step time; %d steps per cell", steps)
	t.AddNote("static cells fall back to demand-only paging when the divergence monitor fires; online cells re-profile (%s) and hot-swap a replacement plan", oc)
	t.AddNote("identical seeds reproduce every row byte-for-byte, controller transition log included")
	return t, nil
}
