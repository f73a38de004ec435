package experiment

import (
	"fmt"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
)

// onlineSteps is how long each cell runs: the recovery loop needs the
// divergence window, the suspect dwell, the sampling round, and the
// cooldown to all play out, plus settled steps after — about twice the
// default sweep length.
const onlineSteps = 12

// The online-robustness cell: resnet32 at batch 128 under Sentinel-GPU,
// every fault rung drawn from one seed.
const (
	onlineModel = "resnet32"
	onlineBatch = 128
	onlineSeed  = 42
)

// onlineRungs are the GPU rungs of the robustness ladder: the divergence
// signal the controller consumes (demand migrations) only exists on
// GPU-like machines, where ops require fast-tier residency. Quick runs
// keep the first two.
var onlineRungs = []struct {
	name string
	cfg  chaos.Config
}{
	{"profile noise 50%", chaos.Config{Seed: onlineSeed, ProfileNoise: 0.5}},
	{"shrink 25% at step 1", chaos.Config{Seed: onlineSeed, ShrinkAtStep: 1, ShrinkFrac: 0.25}},
	{"migrate fail 30%", chaos.Config{Seed: onlineSeed, MigrateFail: 0.3}},
	{"migrate slow 50%", chaos.Config{Seed: onlineSeed, MigrateSlow: 0.5}},
}

// OnlineRobustness measures how much of the static plan's degradation the
// adaptive controller wins back (the detect -> re-profile -> replan ->
// recover loop closed end to end). Each ladder rung runs three ways on
// the GPU platform: clean (no faults, static plan), static-degraded
// (faults injected, the controller with no replan budget detects
// divergence only to fall back to demand paging), and online (same
// faults, the controller re-profiles and replans mid-run). The "gap
// recovered" column is the share of the static-degraded-vs-clean
// slowdown the online run wins back; the recovery target is at least
// half the gap on every rung whose static cell diverged.
func OnlineRobustness(o Options) (*Table, error) {
	t := &Table{
		ID:     "online-robustness",
		Title:  fmt.Sprintf("online recovery under fault injection (%s, GPU HM, fast = 20%% of peak, sentinel-gpu, seed %d)", onlineModel, onlineSeed),
		Header: []string{"fault", "clean step", "static step", "online step", "gap recovered", "replans", "recovered steps", "demand static/online"},
	}
	spec, _, err := o.fastSized(memsys.GPUHM(), onlineModel, onlineBatch)
	if err != nil {
		return nil, err
	}
	rungs := onlineRungs
	if o.Quick {
		rungs = rungs[:2]
	}
	steps := o.steps()
	if steps < onlineSteps {
		steps = onlineSteps
	}
	oc := exec.DefaultOnline()
	cells := []cellRun{{model: onlineModel, batch: onlineBatch, spec: spec,
		policy: "sentinel-gpu", steps: steps}}
	for _, r := range rungs {
		cells = append(cells,
			cellRun{model: onlineModel, batch: onlineBatch, spec: spec,
				policy: "sentinel-gpu", steps: steps, chaos: r.cfg},
			cellRun{model: onlineModel, batch: onlineBatch, spec: spec,
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
