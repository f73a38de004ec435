// Package policyset is the registry of tensor-management policies the
// harness, CLI tools, and experiments select by name.
package policyset

import (
	"fmt"
	"sort"

	"sentinel/internal/baseline"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
)

// Factory builds a fresh policy instance for a run.
type Factory func() exec.Policy

var registry = map[string]Factory{
	"fast-only":       func() exec.Policy { return baseline.NewFastOnly() },
	"slow-only":       func() exec.Policy { return baseline.NewSlowOnly() },
	"first-touch":     func() exec.Policy { return baseline.NewFirstTouch() },
	"sentinel":        func() exec.Policy { return core.NewDefault() },
	"sentinel-direct": func() exec.Policy { return core.New(core.DirectConfig()) },
	"sentinel-detmi":  func() exec.Policy { return core.New(core.DetMIConfig()) },
	"ial":             func() exec.Policy { return baseline.NewIAL() },
	"autotm":          func() exec.Policy { return baseline.NewAutoTM() },
	"memory-mode":     func() exec.Policy { return baseline.NewMemoryMode() },
	"um":              func() exec.Policy { return baseline.NewUM() },
	"vdnn":            func() exec.Policy { return baseline.NewVDNN() },
	"swapadvisor":     func() exec.Policy { return baseline.NewSwapAdvisor() },
	"capuchin":        func() exec.Policy { return baseline.NewCapuchin() },
	// The sentinel-gpu names are Table V's and Fig. 13's labels for the
	// same runtime: Sentinel profiles the GPU way on any GPU-like machine.
	"sentinel-gpu":        func() exec.Policy { return core.NewDefault() },
	"sentinel-gpu-direct": func() exec.Policy { return core.New(core.DirectConfig()) },
	"sentinel-gpu-detmi":  func() exec.Policy { return core.New(core.DetMIConfig()) },
}

// New builds the named policy.
func New(name string) (exec.Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policyset: unknown policy %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names lists registered policies, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes steps of the graph on the machine under the named policy.
func Run(g *graph.Graph, spec memsys.Spec, policy string, steps int, opts ...exec.Option) (*metrics.RunStats, error) {
	p, err := New(policy)
	if err != nil {
		return nil, err
	}
	rt, err := exec.NewRuntime(g, spec, p, opts...)
	if err != nil {
		return nil, err
	}
	return rt.RunSteps(steps)
}

// RunDynamic executes a dynamic-shape or control-flow workload: one graph
// per dataflow variant, scheduled per step (Sec. IV-E). All graphs must
// share the preallocated tensor layout (model.BERTBuckets and
// model.ControlVariants construct such families). Policies see the variant
// change through the runtime's graph and re-profile as needed.
func RunDynamic(graphs []*graph.Graph, spec memsys.Spec, policy string, schedule []int) (*metrics.RunStats, error) {
	if len(graphs) == 0 || len(schedule) == 0 {
		return nil, fmt.Errorf("policyset: dynamic run needs graphs and a schedule")
	}
	p, err := New(policy)
	if err != nil {
		return nil, err
	}
	first := schedule[0]
	if first < 0 || first >= len(graphs) {
		return nil, fmt.Errorf("policyset: schedule entry %d out of range", first)
	}
	rt, err := exec.NewRuntime(graphs[first], spec, p)
	if err != nil {
		return nil, err
	}
	for i, idx := range schedule {
		if idx < 0 || idx >= len(graphs) {
			return nil, fmt.Errorf("policyset: schedule entry %d out of range", idx)
		}
		if i > 0 {
			if err := rt.SetGraph(graphs[idx]); err != nil {
				return nil, err
			}
		}
		if _, err := rt.RunStep(); err != nil {
			return nil, err
		}
	}
	return rt.Run(), nil
}
