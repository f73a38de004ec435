package policyset

import (
	"reflect"
	"strings"
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

func TestRegistryIntegrity(t *testing.T) {
	names := Names()
	if len(names) < 12 {
		t.Fatalf("only %d policies registered", len(names))
	}
	for _, name := range names {
		p, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
		// Factories must return fresh instances: policies hold run
		// state and cannot be shared.
		q, _ := New(name)
		if p == q {
			t.Fatalf("%s: factory returned a shared instance", name)
		}
	}
}

func TestUnknownPolicy(t *testing.T) {
	if _, err := New("lru-deluxe"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunHelper(t *testing.T) {
	g, err := model.Build("resnet32", 16)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(g, memsys.OptaneHM(), "slow-only", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Steps) != 2 {
		t.Fatalf("ran %d steps", len(run.Steps))
	}
	if _, err := Run(g, memsys.OptaneHM(), "bogus", 1); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRunDynamic(t *testing.T) {
	graphs, err := model.ControlVariants(20, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(graphs[0].PeakMemory() / 4)
	run, err := RunDynamic(graphs, spec, "sentinel", []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Steps) != 4 {
		t.Fatalf("ran %d steps", len(run.Steps))
	}
	// Error paths.
	if _, err := RunDynamic(nil, spec, "sentinel", []int{0}); err == nil {
		t.Fatal("empty graphs accepted")
	}
	if _, err := RunDynamic(graphs, spec, "sentinel", nil); err == nil {
		t.Fatal("empty schedule accepted")
	}
	if _, err := RunDynamic(graphs, spec, "sentinel", []int{0, 7}); err == nil {
		t.Fatal("out-of-range schedule accepted")
	}
	if _, err := RunDynamic(graphs, spec, "nope", []int{0}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestSentinelGPUNamesBuildSentinel checks that each sentinel-gpu* name
// is its sentinel* counterpart: on either machine the pair trains
// resnet32 at batch 128, fast tier at 20% of peak, to equal run stats,
// reported as sentinel-gpu on the GPU and as sentinel on Optane.
func TestSentinelGPUNamesBuildSentinel(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	fast := int64(0.2 * float64(g.PeakMemory()))
	for _, spec := range []memsys.Spec{memsys.OptaneHM().WithFastSize(fast), memsys.GPUHM().WithFastSize(fast)} {
		want := "sentinel"
		if spec.GPULike {
			want = "sentinel-gpu"
		}
		for _, name := range []string{"sentinel", "sentinel-direct", "sentinel-detmi"} {
			gpuName := "sentinel-gpu" + strings.TrimPrefix(name, "sentinel")
			a, err := Run(g, spec, name, 4)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, spec.Name, err)
			}
			b, err := Run(g, spec, gpuName, 4)
			if err != nil {
				t.Fatalf("%s on %s: %v", gpuName, spec.Name, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s and %s differ on %s:\n%+v\n%+v", name, gpuName, spec.Name, a, b)
			}
			if a.Policy != want {
				t.Errorf("%s on %s reports policy %q, want %q", name, spec.Name, a.Policy, want)
			}
		}
	}
}

// TestRunDynamicGPU runs "sentinel" on the GPU preset over a control-flow
// variant that first appears at step 2. Each variant's profiling step
// reads pinned host memory, so the schedule completes, and only steps 0
// and 2 profile.
func TestRunDynamicGPU(t *testing.T) {
	graphs, err := model.ControlVariants(32, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.GPUHM().WithFastSize(graphs[0].PeakMemory() / 5)
	run, err := RunDynamic(graphs, spec, "sentinel", []int{0, 0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range run.Steps {
		if profiled := st.Faults > 0 && st.SlowBytes > 0; profiled != (i == 0 || i == 2) {
			t.Errorf("step %d: %d faults, %d bytes read from host in place; want pinned profiling only at steps 0 and 2",
				i, st.Faults, st.SlowBytes)
		}
	}
}
