package baseline

import (
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// BenchmarkAutoTMSetup measures AutoTM's compile-time planning: building
// a runtime under the autotm policy, whose Setup formulates and solves
// the placement ILP (internal/ilp) for resnet200 on the GPU platform. At
// batch 512 the search spends its whole node budget (see
// TestAutoTMSearchPinned). The graph is built once; each iteration pays
// the runtime and the ILP.
func BenchmarkAutoTMSetup(b *testing.B) {
	g, err := model.Build("resnet200", 512)
	if err != nil {
		b.Fatal(err)
	}
	spec := memsys.GPUHM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.NewRuntime(g, spec, NewAutoTM()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapAdvisorSetup measures SwapAdvisor's compile-time planning:
// building a runtime under the swapadvisor policy, whose Setup runs the
// GA over swap selection and prefetch leads for resnet200 on the GPU
// platform. The graph is built once; each iteration pays the runtime,
// the scorer's set-up and every fitness evaluation.
func BenchmarkSwapAdvisorSetup(b *testing.B) {
	g, err := model.Build("resnet200", 512)
	if err != nil {
		b.Fatal(err)
	}
	spec := memsys.GPUHM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.NewRuntime(g, spec, NewSwapAdvisor()); err != nil {
			b.Fatal(err)
		}
	}
}
