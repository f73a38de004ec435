package gpu_test

import (
	"sentinel/internal/core"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/gpu"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

func TestSentinelGPUProfilesOverPinnedMemory(t *testing.T) {
	g, err := model.Build("resnet200", 64)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := exec.NewRuntime(g, memsys.GPUHM(), core.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	run, err := rt.RunSteps(3)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 is the pinned-memory profiling step: the GPU reads host
	// pages in place, so slow bytes dominate and faults are counted.
	if run.Steps[0].Faults == 0 {
		t.Fatal("no profiling faults on GPU")
	}
	if run.Steps[0].SlowBytes == 0 {
		t.Fatal("profiling step did not read pinned host memory")
	}
	// After profiling, training reverts to device accesses.
	st := run.SteadyStep()
	if st.SlowBytes != 0 {
		t.Fatalf("steady GPU step read %d bytes from host in place", st.SlowBytes)
	}
	// The double-buffer synchronization is charged once, after step 0.
	if run.Steps[0].Duration <= run.Steps[2].Duration {
		t.Fatal("profiling step should be slower than steady state")
	}
}

func TestMaxBatchOrdering(t *testing.T) {
	spec := memsys.GPUHM()
	tf, err := gpu.MaxBatch("resnet200", spec, func() exec.Policy { return baseline.NewFastOnly() }, 512)
	if err != nil {
		t.Fatal(err)
	}
	sentinel, err := gpu.MaxBatch("resnet200", spec, func() exec.Policy { return core.NewDefault() }, 512)
	if err != nil {
		t.Fatal(err)
	}
	if tf <= 0 {
		t.Fatal("TensorFlow baseline cannot train at all")
	}
	// Table V: Sentinel trains much larger batches than plain TF.
	if sentinel < 2*tf {
		t.Fatalf("sentinel max batch %d not much larger than TF's %d", sentinel, tf)
	}
}

func TestMaxBatchGrowsWithMemory(t *testing.T) {
	small := memsys.GPUHM()
	small.Fast.Size = 8 << 30
	big := memsys.GPUHM()
	big.Fast.Size = 32 << 30
	mbSmall, err := gpu.MaxBatch("resnet200", small, func() exec.Policy { return baseline.NewFastOnly() }, 512)
	if err != nil {
		t.Fatal(err)
	}
	mbBig, err := gpu.MaxBatch("resnet200", big, func() exec.Policy { return baseline.NewFastOnly() }, 512)
	if err != nil {
		t.Fatal(err)
	}
	if mbBig <= mbSmall {
		t.Fatalf("max batch did not grow with memory: %d vs %d", mbSmall, mbBig)
	}
}

func TestMaxBatchRespectsLimit(t *testing.T) {
	spec := memsys.GPUHM()
	mb, err := gpu.MaxBatch("dcgan", spec, func() exec.Policy { return core.NewDefault() }, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mb > 64 {
		t.Fatalf("limit ignored: %d", mb)
	}
}

func TestSentinelGPUNoExplicitTestAndTrial(t *testing.T) {
	s := core.NewDefault()
	g, err := model.Build("resnet200", 96)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := exec.NewRuntime(g, memsys.GPUHM(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(4); err != nil {
		t.Fatal(err)
	}
	// On GPU, Case 3 is handled by residency stalls, not trial steps:
	// overhead accounting stays at the single profiling step.
	if s.OverheadSteps() != 1 {
		t.Fatalf("GPU runs should not use test-and-trial steps, got %d", s.OverheadSteps())
	}
}

// TestSentinelGPUProfilesNewVariantOverPinnedMemory runs a dataflow
// variant that first appears at step 2. Its profiling step must run over
// pinned host memory like step 0 does: its tensors start page-aligned on
// the slow tier with no profile to evict by, so demand-migrating them
// instead would run out of fast memory. Training returns to device
// accesses after it, and to a known variant without profiling again.
func TestSentinelGPUProfilesNewVariantOverPinnedMemory(t *testing.T) {
	graphs, err := model.ControlVariants(32, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, div := range []int64{5, 2} {
		spec := memsys.GPUHM().WithFastSize(graphs[0].PeakMemory() / div)
		rt, err := exec.NewRuntime(graphs[0], spec, core.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		schedule := []int{0, 0, 1, 1, 0}
		for i, v := range schedule {
			if i > 0 {
				if err := rt.SetGraph(graphs[v]); err != nil {
					t.Fatalf("peak/%d step %d: %v", div, i, err)
				}
			}
			if _, err := rt.RunStep(); err != nil {
				t.Fatalf("peak/%d step %d: %v", div, i, err)
			}
		}
		for i, st := range rt.Run().Steps {
			profiling := i == 0 || i == 2
			if pinned := st.Faults > 0 && st.SlowBytes > 0; pinned != profiling {
				t.Errorf("peak/%d step %d: %d faults, %d bytes read from host in place; want pinned profiling only at steps 0 and 2",
					div, i, st.Faults, st.SlowBytes)
			}
		}
	}
}
