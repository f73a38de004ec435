package gpu_test

import (
	"reflect"
	"testing"

	"sentinel/internal/chaos"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
)

func runOnlineGPU(t *testing.T, cfg chaos.Config, online bool) *metrics.RunStats {
	t.Helper()
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.GPUHM().WithFastSize(int64(0.20 * float64(g.PeakMemory())))
	var opts []exec.Option
	if cfg != (chaos.Config{}) {
		opts = append(opts, exec.WithChaos(chaos.New(cfg)))
	}
	if online {
		opts = append(opts, exec.WithOnline(exec.DefaultOnline()))
	}
	rt, err := exec.NewRuntime(g, spec, core.NewDefault(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	run, err := rt.RunSteps(12)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func demandTotal(run *metrics.RunStats) int64 {
	var n int64
	for _, s := range run.Steps {
		n += s.DemandMigrations
	}
	return n
}

// TestOnlineRecoversFromShrink drives the full detect -> re-profile ->
// replan -> recover loop end to end on the real GPU platform: a 25%
// fast-tier shrink at step 1 invalidates the offline plan, the static
// run degrades to demand-only paging, and the online controller rebuilds
// the plan against the shrunken tier and ends the run healthy — which
// also exercises the post-swap baseline reset (a stale baseline would
// re-flag the new plan and flap back into recovery).
func TestOnlineRecoversFromShrink(t *testing.T) {
	shrink := chaos.Config{Seed: 42, ShrinkAtStep: 1, ShrinkFrac: 0.25}

	static := runOnlineGPU(t, shrink, false)
	if !static.Diverged {
		t.Fatal("static run under a 25% shrink did not diverge; fault too weak to test recovery")
	}
	if static.Replans != 0 {
		t.Fatalf("static run replanned %d times; controller should be off", static.Replans)
	}

	run := runOnlineGPU(t, shrink, true)
	if run.Replans != 1 {
		t.Fatalf("online run replanned %d times, want exactly 1\nlog: %v", run.Replans, run.ControllerLog)
	}
	if run.RecoveredSteps == 0 {
		t.Fatalf("plan swapped but no steps ran on the new plan\nlog: %v", run.ControllerLog)
	}
	if run.Diverged {
		t.Fatalf("online run still ended in demand-only fallback\nlog: %v", run.ControllerLog)
	}
	if do, ds := demandTotal(run), demandTotal(static); do >= ds {
		t.Fatalf("online demand migrations %d >= static %d; replan bought nothing", do, ds)
	}
}

// TestOnlineGPUDeterminism re-runs the same chaotic online configuration
// and requires byte-identical stats, including the controller's
// transition log — virtual time, seeded chaos, and the controller's
// state machine admit no host-order dependence.
func TestOnlineGPUDeterminism(t *testing.T) {
	cfg := chaos.Config{Seed: 42, MigrateFail: 0.3, ShrinkAtStep: 1, ShrinkFrac: 0.25}
	a := runOnlineGPU(t, cfg, true)
	b := runOnlineGPU(t, cfg, true)
	if a.Replans == 0 {
		t.Fatalf("the configuration never replans; the transition log checks nothing\nlog: %v", a.ControllerLog)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n a: %+v\n b: %+v", a, b)
	}
	if !reflect.DeepEqual(a.ControllerLog, b.ControllerLog) {
		t.Fatalf("controller logs differ:\n a: %v\n b: %v", a.ControllerLog, b.ControllerLog)
	}
}
