package core_test

import (
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
)

// BenchmarkBuildPlan measures Sentinel's planning step alone: choosing
// the migration interval length with the Equation 2 performance model and
// laying out every interval's prefetch and eviction sets, for resnet32 at
// batch 128 on the Optane platform with the fast tier at 20% of peak. The
// graph and its profile are built once, outside the timer.
func BenchmarkBuildPlan(b *testing.B) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		b.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(int64(0.2 * float64(g.PeakMemory())))
	p, err := profile.Collect(g, spec)
	if err != nil {
		b.Fatal(err)
	}
	decomp := core.LayerDecompFromProfile(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPlan(p, spec, decomp, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPlanGPU measures the same planning step for Sentinel-GPU's
// largest Fig. 13 network: resnet200 at batch 192 on the GPU preset, whose
// 137 layers make the interval-length search the plan's largest part. The
// graph and its profile are built once, outside the timer.
func BenchmarkBuildPlanGPU(b *testing.B) {
	g, err := model.Build("resnet200", 192)
	if err != nil {
		b.Fatal(err)
	}
	spec := memsys.GPUHM()
	p, err := profile.Collect(g, spec)
	if err != nil {
		b.Fatal(err)
	}
	decomp := core.LayerDecompFromProfile(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPlan(p, spec, decomp, 0); err != nil {
			b.Fatal(err)
		}
	}
}
