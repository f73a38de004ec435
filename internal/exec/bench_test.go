package exec_test

import (
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// BenchmarkAutoTMStep measures the engine's cost of one training step
// under a static, non-Sentinel policy: AutoTM's ILP placement for
// resnet32 at batch 128 on the Optane platform with the fast tier at 20%
// of peak. The ILP is solved and the first step run outside the timer,
// so each iteration is the engine's access loop, residency queries and
// the plan's scheduled migrations.
func BenchmarkAutoTMStep(b *testing.B) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		b.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	rt, err := exec.NewRuntime(g, spec, baseline.NewAutoTM())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.RunStep(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.RunStep(); err != nil {
			b.Fatal(err)
		}
	}
}
