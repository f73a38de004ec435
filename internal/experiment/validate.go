package experiment

import (
	"fmt"
	"strings"

	"sentinel/internal/memsys"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
)

// Check is one validated claim from the paper.
type Check struct {
	Name   string
	Claim  string
	Pass   bool
	Detail string
}

// Validate runs the reproduction's shape checks: each is a claim from the
// paper that must hold in this simulation (with the tolerances documented
// in EXPERIMENTS.md). Used by cmd/sentinel-validate as a one-command
// self-check. Independent simulation groups fan out over the worker pool;
// the check list itself is assembled in a fixed order. A quarantined cell
// leaves only placeholder stats for the checks to judge, so Validate
// fails naming every such cell rather than report a verdict on zeros.
func Validate(o Options) ([]Check, error) {
	o = o.normalized()
	var checks []Check
	add := func(name, claim string, pass bool, format string, args ...any) {
		checks = append(checks, Check{
			Name: name, Claim: claim, Pass: pass, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Observation 1 & 3 — tensor population and false sharing.
	c, err := o.characterize("resnet32", 128, memsys.OptaneHM())
	if err != nil {
		return nil, err
	}
	add("obs1-short-lived", "most tensors are short-lived and sub-page",
		c.ShortLivedFraction() >= 0.75 && c.SmallFraction() >= 0.80,
		"%.0f%% short-lived, %.0f%% of those sub-page", 100*c.ShortLivedFraction(), 100*c.SmallFraction())
	add("obs2-hot-set", "the hot set is tiny relative to cold bytes",
		c.TensorBytes[profile.BucketHot] < c.TensorBytes[profile.BucketCold]/10,
		"hot %s vs cold %s", simtime.Bytes(c.TensorBytes[profile.BucketHot]), simtime.Bytes(c.TensorBytes[profile.BucketCold]))
	add("obs3-false-sharing", "page-level profiling misattributes cold bytes",
		c.FalseSharingBytes > 0,
		"%s misattributed", simtime.Bytes(c.FalseSharingBytes))

	// Fig. 7 — CPU ordering and the fast-only gap.
	spec, peak, err := o.fastSized(memsys.OptaneHM(), "resnet32", 128)
	if err != nil {
		return nil, err
	}
	cpuPolicies := []string{"slow-only", "ial", "autotm", "memory-mode", "first-touch", "sentinel"}
	cells := make([]cellRun, 0, len(cpuPolicies)+2)
	for _, p := range cpuPolicies {
		cells = append(cells, cellRun{model: "resnet32", batch: 128, spec: spec, policy: p, steps: o.steps()})
	}
	cells = append(cells, cellRun{model: "resnet32", batch: 128,
		spec: memsys.OptaneHM().WithFastSize(2 * peak), policy: "fast-only", steps: 2})
	// Table III — overhead accounting via a fresh (3-step) Sentinel run.
	cells = append(cells, cellRun{model: "resnet32", batch: 128, spec: spec, policy: "sentinel", steps: 3})
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	times := map[string]simtime.Duration{}
	for i, p := range cpuPolicies {
		times[p] = runs[i].SteadyStepTime()
	}
	fast := runs[len(cpuPolicies)].SteadyStepTime()
	add("fig7-ordering", "sentinel > autotm > memory-mode > ial > first-touch > slow-only",
		times["sentinel"] < times["autotm"] &&
			times["autotm"] < times["memory-mode"] &&
			times["memory-mode"] < times["ial"] &&
			times["ial"] < times["first-touch"] &&
			times["first-touch"] < times["slow-only"],
		"sentinel %v, autotm %v, memory-mode %v, ial %v, first-touch %v, slow %v",
		times["sentinel"], times["autotm"], times["memory-mode"], times["ial"], times["first-touch"], times["slow-only"])
	gap := float64(times["sentinel"])/float64(fast) - 1
	add("fig7-gap", "sentinel at 20% fast stays near fast-only",
		gap < 0.35, "gap %.1f%% (paper: 9%% mean; documented tolerance 35%% per-model)", 100*gap)

	profRun := runs[len(cpuPolicies)+1]
	slowdown := float64(profRun.Steps[0].Duration) / float64(profRun.SteadyStepTime())
	add("table3-profiling-cost", "the profiled step costs 1.1x-6.5x a normal step (paper: up to 5x)",
		slowdown > 1.1 && slowdown < 6.5, "%.1fx", slowdown)

	// GPU shape checks at an over-capacity batch.
	gspec := memsys.GPUHM()
	gpuChecks := []string{"um", "autotm", "swapadvisor", "capuchin", "sentinel-gpu"}
	gcells := make([]cellRun, len(gpuChecks))
	for i, p := range gpuChecks {
		gcells[i] = cellRun{model: "resnet200", batch: 128, spec: gspec, policy: p, steps: o.steps()}
	}
	gruns, err := o.runFit(gcells)
	if err != nil {
		return nil, err
	}
	gtimes := map[string]*struct {
		dur   simtime.Duration
		stall simtime.Duration
	}{}
	for i, p := range gpuChecks {
		st := gruns[i].SteadyStep()
		gtimes[p] = &struct {
			dur   simtime.Duration
			stall simtime.Duration
		}{st.Duration, st.StallTime}
	}
	add("fig12-ordering", "sentinel-gpu is the fastest GPU policy at over-capacity batches",
		gtimes["sentinel-gpu"].dur < gtimes["um"].dur &&
			gtimes["sentinel-gpu"].dur < gtimes["autotm"].dur &&
			gtimes["sentinel-gpu"].dur < gtimes["swapadvisor"].dur &&
			gtimes["sentinel-gpu"].dur < gtimes["capuchin"].dur,
		"sentinel %v vs um %v autotm %v swapadvisor %v capuchin %v",
		gtimes["sentinel-gpu"].dur, gtimes["um"].dur, gtimes["autotm"].dur,
		gtimes["swapadvisor"].dur, gtimes["capuchin"].dur)
	add("fig13-exposure", "sentinel-gpu exposes the least migration",
		gtimes["sentinel-gpu"].stall < gtimes["autotm"].stall &&
			gtimes["sentinel-gpu"].stall < gtimes["swapadvisor"].stall,
		"sentinel %v vs autotm %v swapadvisor %v",
		gtimes["sentinel-gpu"].stall, gtimes["autotm"].stall, gtimes["swapadvisor"].stall)

	// Table V — max batch over plain TensorFlow; the two searches run in
	// lockstep.
	maxes, err := o.maxBatches("resnet200", gspec, []string{"fast-only", "sentinel-gpu"}, 1<<10)
	if err != nil {
		return nil, err
	}
	tfMax, sMax := maxes[0], maxes[1]
	add("table5-batch", "sentinel-gpu trains much larger batches than plain TF",
		sMax >= 2*tfMax, "sentinel %d vs tf %d", sMax, tfMax)

	if notes := o.quar.report(); notes != nil {
		return nil, fmt.Errorf("validate: %s", strings.Join(notes[1:], "; "))
	}
	return checks, nil
}
