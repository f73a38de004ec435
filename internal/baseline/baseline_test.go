package baseline_test

import (
	"errors"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/simtime"
)

func run(t *testing.T, modelName string, batch int, spec memsys.Spec, p exec.Policy, steps int) *exec.Runtime {
	t.Helper()
	g, err := model.Build(modelName, batch)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := exec.NewRuntime(g, spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	return rt
}

func cpuSpec(t *testing.T, modelName string, batch int) memsys.Spec {
	t.Helper()
	g, err := model.Build(modelName, batch)
	if err != nil {
		t.Fatal(err)
	}
	return memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
}

func TestIALPromotesAndDemotes(t *testing.T) {
	spec := cpuSpec(t, "resnet32", 128)
	rt := run(t, "resnet32", 128, spec, baseline.NewIAL(), 4)
	st := rt.Run().SteadyStep()
	if st.MigratedIn == 0 {
		t.Fatal("IAL never promoted pages")
	}
	if st.MigratedOut == 0 {
		t.Fatal("IAL never demoted pages")
	}
	if st.FastBytes == 0 {
		t.Fatal("IAL served nothing from fast memory")
	}
}

func TestIALSlowerThanSentinelFasterThanSlowOnly(t *testing.T) {
	spec := cpuSpec(t, "resnet32", 128)
	ial := run(t, "resnet32", 128, spec, baseline.NewIAL(), 5).Run().SteadyStepTime()
	slow := run(t, "resnet32", 128, spec, baseline.NewSlowOnly(), 2).Run().SteadyStepTime()
	sent := run(t, "resnet32", 128, spec, core.NewDefault(), 5).Run().SteadyStepTime()
	if !(sent < ial && ial < slow) {
		t.Fatalf("ordering broken: sentinel %v, ial %v, slow %v", sent, ial, slow)
	}
}

func TestAutoTMBetweenIALAndSentinel(t *testing.T) {
	// The paper's CPU ordering: Sentinel > AutoTM > IAL.
	spec := cpuSpec(t, "resnet32", 128)
	atm := run(t, "resnet32", 128, spec, baseline.NewAutoTM(), 5).Run().SteadyStepTime()
	ial := run(t, "resnet32", 128, spec, baseline.NewIAL(), 5).Run().SteadyStepTime()
	sent := run(t, "resnet32", 128, spec, core.NewDefault(), 5).Run().SteadyStepTime()
	if !(sent < atm && atm < ial) {
		t.Fatalf("ordering broken: sentinel %v, autotm %v, ial %v", sent, atm, ial)
	}
}

func TestAutoTMMovesAreSynchronousOnCPU(t *testing.T) {
	spec := cpuSpec(t, "resnet32", 128)
	rt := run(t, "resnet32", 128, spec, baseline.NewAutoTM(), 3)
	st := rt.Run().SteadyStep()
	if st.MigratedTotal() == 0 {
		t.Fatal("AutoTM scheduled no moves at 20% fast memory")
	}
	if st.StallTime == 0 {
		t.Fatal("AutoTM's CPU moves should expose stall time")
	}
}

func TestMemoryModeBetweenFirstTouchAndSentinel(t *testing.T) {
	spec := cpuSpec(t, "resnet32", 128)
	mm := run(t, "resnet32", 128, spec, baseline.NewMemoryMode(), 4).Run().SteadyStepTime()
	ft := run(t, "resnet32", 128, spec, baseline.NewFirstTouch(), 2).Run().SteadyStepTime()
	sent := run(t, "resnet32", 128, spec, core.NewDefault(), 5).Run().SteadyStepTime()
	if !(sent < mm && mm < ft) {
		t.Fatalf("ordering broken: sentinel %v, memory-mode %v, first-touch %v", sent, mm, ft)
	}
}

func TestVDNNUnsupportedModels(t *testing.T) {
	if baseline.Supported("bert-large") || baseline.Supported("lstm") {
		t.Fatal("vDNN claims to support recursive models")
	}
	if !baseline.Supported("resnet200") || !baseline.Supported("dcgan") {
		t.Fatal("vDNN rejects CNN models")
	}
	g, err := model.Build("bert-base", 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.NewRuntime(g, memsys.GPUHM(), baseline.NewVDNN())
	if !errors.Is(err, baseline.ErrUnsupportedModel) {
		t.Fatalf("want ErrUnsupportedModel, got %v", err)
	}
}

func TestGPUOrderingAtLargeBatch(t *testing.T) {
	// Over-capacity batch: Sentinel-GPU must beat UM, vDNN, and
	// SwapAdvisor (the paper's ordering; Capuchin is its closest rival).
	const modelName, batch = "resnet200", 128
	spec := memsys.GPUHM()
	times := map[string]simtime.Duration{}
	for name, factory := range map[string]func() exec.Policy{
		"um":           func() exec.Policy { return baseline.NewUM() },
		"vdnn":         func() exec.Policy { return baseline.NewVDNN() },
		"swapadvisor":  func() exec.Policy { return baseline.NewSwapAdvisor() },
		"capuchin":     func() exec.Policy { return baseline.NewCapuchin() },
		"sentinel-gpu": func() exec.Policy { return core.NewDefault() },
	} {
		rt := run(t, modelName, batch, spec, factory(), 5)
		times[name] = rt.Run().SteadyStepTime()
	}
	s := times["sentinel-gpu"]
	for _, rival := range []string{"um", "vdnn", "swapadvisor"} {
		if s >= times[rival] {
			t.Errorf("sentinel-gpu (%v) not faster than %s (%v)", s, rival, times[rival])
		}
	}
	// Capuchin must be within the same league (the paper reports 16%).
	if float64(times["capuchin"]) < 0.8*float64(s) {
		t.Errorf("capuchin (%v) implausibly beats sentinel-gpu (%v)", times["capuchin"], s)
	}
}

func TestUMDemandOnly(t *testing.T) {
	rt := run(t, "resnet200", 128, memsys.GPUHM(), baseline.NewUM(), 3)
	st := rt.Run().SteadyStep()
	if st.DemandMigrations == 0 {
		t.Fatal("UM at over-capacity batch made no demand migrations")
	}
	if st.StallTime == 0 {
		t.Fatal("UM's demand transfers should be exposed")
	}
}

func TestCapuchinRecomputes(t *testing.T) {
	rt := run(t, "resnet200", 192, memsys.GPUHM(), baseline.NewCapuchin(), 4)
	st := rt.Run().SteadyStep()
	if st.RecomputeTime == 0 {
		t.Skip("no recompute at this configuration (channel not saturated)")
	}
	if float64(st.RecomputeTime) > 0.4*float64(st.Duration) {
		t.Fatalf("recompute dominates the step: %v of %v", st.RecomputeTime, st.Duration)
	}
}

func TestSwapAdvisorSchedules(t *testing.T) {
	g, err := model.Build("resnet200", 128)
	if err != nil {
		t.Fatal(err)
	}
	p := baseline.NewSwapAdvisor()
	rt, err := exec.NewRuntime(g, memsys.GPUHM(), p)
	if err != nil {
		t.Fatal(err)
	}
	if p.SearchCost <= 0 {
		t.Fatal("GA search cost not recorded")
	}
	if _, err := rt.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	if rt.Run().SteadyStep().MigratedTotal() == 0 {
		t.Fatal("SwapAdvisor moved nothing at over-capacity batch")
	}
}
