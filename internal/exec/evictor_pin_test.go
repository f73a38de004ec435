package exec_test

import (
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/chaos"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// TestEvictorStepsPinned pins whole engine steps that run the GPU
// evictors: Sentinel-GPU's farthest-next-use MakeRoom (including its
// last-resort loop at b1024, and the eviction set rebuilt by an online
// replan) and UM's LRU MakeRoom. Each digest covers every StepStats
// field staticDigest hashes, over the cell's first four steps; the online
// cell (a 25% shrink at step 1) runs eight, because its replan lands at
// the end of step 5 and the steps after it evict from the replanned set.
func TestEvictorStepsPinned(t *testing.T) {
	sentinelGPU := func() exec.Policy { return core.NewDefault() }
	for _, tc := range []struct {
		name   string
		model  string
		batch  int
		policy func() exec.Policy
		opts   []exec.Option
		fast   float64 // fast tier as a share of peak memory; 0 keeps GPUHM's
		steps  int
		digest uint64
	}{
		{"sentinel-gpu-resnet200-b96", "resnet200", 96, sentinelGPU, nil, 0, 4,
			0x9e3daae8bc51f3bf},
		{"um-bert-large-b32", "bert-large", 32, func() exec.Policy { return baseline.NewUM() }, nil, 0, 4,
			0x67bba2182d68ec96},
		{"sentinel-gpu-resnet200-b1024", "resnet200", 1024, sentinelGPU, nil, 0, 4,
			0x6ae162729500f207},
		{"sentinel-gpu-chaos-online", "resnet32", 128, sentinelGPU,
			[]exec.Option{
				exec.WithChaos(chaos.New(chaos.Config{Seed: 42, ShrinkAtStep: 1, ShrinkFrac: 0.25})),
				exec.WithOnline(exec.DefaultOnline()),
			}, 0.2, 8,
			0x2553c6fc9a04cc66},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := model.Build(tc.model, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			spec := memsys.GPUHM()
			if tc.fast > 0 {
				spec = spec.WithFastSize(int64(tc.fast * float64(g.PeakMemory())))
			}
			rt, err := exec.NewRuntime(g, spec, tc.policy(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			run, err := rt.RunSteps(tc.steps)
			if err != nil {
				t.Fatal(err)
			}
			if got := staticDigest(run.Steps); got != tc.digest {
				t.Errorf("step digest = %#x, want %#x", got, tc.digest)
			}
			if tc.opts != nil && run.Replans < 1 {
				t.Errorf("replans = %d, want at least 1", run.Replans)
			}
		})
	}
}
