package gpu

import (
	"sentinel/internal/core"
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/simtime"
)

// TestDebugStalls reports where residency stalls concentrate; a diagnostic
// harness, no assertions.
func TestDebugStalls(t *testing.T) {
	g, err := model.Build("resnet200", 128)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := exec.NewRuntime(g, memsys.GPUHM(), core.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	st := rt.Run().SteadyStep()
	var cum simtime.Duration
	for l, lt := range st.LayerTime {
		mem := st.LayerMemTime[l]
		comp := st.LayerComputeTime[l]
		overhead := lt - maxDur(mem, comp)
		cum += overhead
		if overhead > 10*simtime.Millisecond {
			t.Logf("layer %3d: time=%9v compute=%9v mem=%9v overhead=%9v", l, lt, comp, mem, overhead)
		}
	}
	t.Logf("total stall-ish overhead %v of %v (stall stat %v, demand=%d)", cum, st.Duration, st.StallTime, st.DemandMigrations)
}

func maxDur(a, b simtime.Duration) simtime.Duration {
	if a > b {
		return a
	}
	return b
}
