package gpu_test

import (
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/trace"
)

// TestDemandRetryCountsFirstAttempt runs a Table V max-batch probe whose
// demand path comes back short on its first migration and retries:
// mobilenet at batch 2304 under AutoTM on the V100 preset, for the two
// steps a probe runs. Every byte the kernel migrates into fast memory
// reaches the bus as a migrate-in event, so the run's migrate-in total
// must equal the sum of its steps' MigratedIn, the first attempt's bytes
// included.
func TestDemandRetryCountsFirstAttempt(t *testing.T) {
	g, err := model.Build("mobilenet", 2304)
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus(1)
	var busIn int64
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.KMigrateIn {
			busIn += e.Bytes
		}
	})
	rt, err := exec.NewRuntime(g, memsys.GPUHM(), baseline.NewAutoTM(), exec.WithTrace(bus, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := rt.RunSteps(2)
	if err != nil {
		t.Fatal(err)
	}
	var statsIn int64
	for _, st := range run.Steps {
		statsIn += st.MigratedIn
	}
	if busIn != statsIn || statsIn == 0 {
		t.Errorf("bus migrate-in %d bytes, steps' MigratedIn %d (lost %d)", busIn, statsIn, busIn-statsIn)
	}
}
