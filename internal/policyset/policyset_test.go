package policyset

import (
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
