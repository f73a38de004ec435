package exec_test

import (
	"errors"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/trace"
)

// testSpec returns an Optane-like machine whose fast tier holds frac of the
// graph's peak memory.
func testSpec(t *testing.T, modelName string, batch int, frac float64) (memsys.Spec, int64) {
	t.Helper()
	g, err := model.Build(modelName, batch)
	if err != nil {
		t.Fatalf("build %s: %v", modelName, err)
	}
	peak := g.PeakMemory()
	spec := memsys.OptaneHM().WithFastSize(int64(frac * float64(peak)))
	return spec, peak
}

func runModel(t *testing.T, modelName string, batch int, spec memsys.Spec, p exec.Policy, steps int) *exec.Runtime {
	t.Helper()
	g, err := model.Build(modelName, batch)
	if err != nil {
		t.Fatalf("build %s: %v", modelName, err)
	}
	rt, err := exec.NewRuntime(g, spec, p)
	if err != nil {
		t.Fatalf("new runtime: %v", err)
	}
	if _, err := rt.RunSteps(steps); err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt
}

func TestSlowOnlyRunsAllModels(t *testing.T) {
	for _, m := range model.EvalSet() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			spec := memsys.OptaneHM()
			rt := runModel(t, m.Name, m.SmallBatch, spec, baseline.NewSlowOnly(), 2)
			st := rt.Run().SteadyStep()
			if st.Duration <= 0 {
				t.Fatalf("non-positive step time %v", st.Duration)
			}
			if st.FastBytes != 0 {
				t.Errorf("slow-only served %d bytes from fast memory", st.FastBytes)
			}
			if st.MigratedTotal() != 0 {
				t.Errorf("slow-only migrated %d bytes", st.MigratedTotal())
			}
		})
	}
}

func TestFastOnlyFasterThanSlowOnly(t *testing.T) {
	for _, m := range model.EvalSet() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			g, err := model.Build(m.Name, m.SmallBatch)
			if err != nil {
				t.Fatal(err)
			}
			// Fast tier sized to hold everything.
			spec := memsys.OptaneHM().WithFastSize(2 * g.PeakMemory())
			fast := runModel(t, m.Name, m.SmallBatch, spec, baseline.NewFastOnly(), 2)
			slow := runModel(t, m.Name, m.SmallBatch, spec, baseline.NewSlowOnly(), 2)
			ft := fast.Run().SteadyStepTime()
			st := slow.Run().SteadyStepTime()
			if ft >= st {
				t.Errorf("fast-only (%v) not faster than slow-only (%v)", ft, st)
			}
			// The paper's slow-only baselines run materially slower
			// than DRAM; DCGAN is the most compute-bound model and
			// sits near 1.25x, the rest well above.
			if float64(st) < 1.2*float64(ft) {
				t.Errorf("slow-only only %.2fx slower than fast-only; want >= 1.2x", float64(st)/float64(ft))
			}
		})
	}
}

func TestStepTimesStableAcrossSteps(t *testing.T) {
	spec := memsys.OptaneHM()
	rt := runModel(t, "resnet32", 128, spec, baseline.NewSlowOnly(), 3)
	steps := rt.Run().Steps
	for i := 1; i < len(steps); i++ {
		if steps[i].Duration != steps[0].Duration {
			t.Errorf("step %d duration %v != step 0 duration %v (static policy should be steady)",
				i, steps[i].Duration, steps[0].Duration)
		}
	}
}

func TestFirstTouchBetweenFastAndSlow(t *testing.T) {
	spec, _ := testSpec(t, "resnet32", 128, 0.2)
	ft := runModel(t, "resnet32", 128, spec, baseline.NewFirstTouch(), 2)
	slow := runModel(t, "resnet32", 128, spec, baseline.NewSlowOnly(), 2)
	if ft.Run().SteadyStepTime() > slow.Run().SteadyStepTime() {
		t.Errorf("first-touch (%v) slower than slow-only (%v)",
			ft.Run().SteadyStepTime(), slow.Run().SteadyStepTime())
	}
	if ft.Run().SteadyStep().FastBytes == 0 {
		t.Error("first-touch never used fast memory")
	}
}

func TestGPUResidencyOOM(t *testing.T) {
	g, err := model.Build("resnet200", 64)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.GPUHM()
	spec.Fast.Size = g.PeakMemory() / 4 // far too small without migration
	_, err = exec.NewRuntime(g, spec, baseline.NewFastOnly())
	if err == nil {
		// Construction may succeed (prealloc fits); the step must
		// then fail.
		rt, err2 := exec.NewRuntime(g, spec, baseline.NewFastOnly())
		if err2 != nil {
			t.Fatalf("second construction failed: %v", err2)
		}
		_, err = rt.RunSteps(1)
	}
	if err == nil {
		t.Fatal("expected OOM on GPU with tiny fast memory and no migration")
	}
	if !errors.Is(err, exec.ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

// TestBandwidthTrace: the bus carries every demand byte, so its slow-tier
// access events add up to the step's SlowBytes.
func TestBandwidthTrace(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	var slow int64
	bus := trace.NewBus(1)
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.KAccess && e.Tier == trace.TierSlow {
			slow += e.Bytes
		}
	})
	rt, err := exec.NewRuntime(g, memsys.OptaneHM(), baseline.NewSlowOnly(), exec.WithTrace(bus, ""))
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	if slow == 0 || slow != st.SlowBytes {
		t.Errorf("bus slow bytes %d != stats %d", slow, st.SlowBytes)
	}
}
