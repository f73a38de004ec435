package core_test

import (
	"strings"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// runSentinel trains a model under Sentinel at a fast-memory fraction of
// peak and returns the runtime.
func runSentinel(t *testing.T, modelName string, batch int, frac float64, cfg core.Config, steps int) (*exec.Runtime, *core.Sentinel) {
	t.Helper()
	g, err := model.Build(modelName, batch)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(int64(frac * float64(g.PeakMemory())))
	s := core.New(cfg)
	rt, err := exec.NewRuntime(g, spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	return rt, s
}

func TestSentinelEndToEnd(t *testing.T) {
	rt, s := runSentinel(t, "resnet32", 128, 0.2, core.DefaultConfig(), 5)
	if s.Profile() == nil || s.Plan() == nil {
		t.Fatal("no profile or plan after training")
	}
	st := rt.Run().SteadyStep()
	if st.MigratedTotal() == 0 {
		t.Fatal("sentinel never migrated at 20% fast memory")
	}
	// Steady state must serve the majority of traffic from fast memory.
	if st.FastBytes <= st.SlowBytes {
		t.Fatalf("fast %d <= slow %d bytes", st.FastBytes, st.SlowBytes)
	}
}

func TestSentinelBeatsPageLevelBaselines(t *testing.T) {
	for _, m := range model.EvalSet() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			g, err := model.Build(m.Name, m.SmallBatch)
			if err != nil {
				t.Fatal(err)
			}
			spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
			times := map[string]simtime.Duration{}
			for name, p := range map[string]exec.Policy{
				"sentinel":    core.NewDefault(),
				"ial":         baseline.NewIAL(),
				"first-touch": baseline.NewFirstTouch(),
				"slow-only":   baseline.NewSlowOnly(),
			} {
				g2, _ := model.Build(m.Name, m.SmallBatch)
				rt, err := exec.NewRuntime(g2, spec, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rt.RunSteps(5); err != nil {
					t.Fatal(err)
				}
				times[name] = rt.Run().SteadyStepTime()
			}
			if times["sentinel"] >= times["ial"] {
				t.Errorf("sentinel (%v) not faster than IAL (%v)", times["sentinel"], times["ial"])
			}
			if times["sentinel"] >= times["first-touch"] {
				t.Errorf("sentinel (%v) not faster than first-touch (%v)", times["sentinel"], times["first-touch"])
			}
			if times["sentinel"] >= times["slow-only"] {
				t.Errorf("sentinel (%v) not faster than slow-only (%v)", times["sentinel"], times["slow-only"])
			}
		})
	}
}

// TestSentinelNearFastOnly is the paper's headline claim: at 20% of peak,
// Sentinel stays within striking distance of the DRAM-only system (9% mean
// in the paper; the simulator's bound is looser but must stay well under
// the slow-only gap).
func TestSentinelNearFastOnly(t *testing.T) {
	for _, m := range []struct {
		name  string
		batch int
		bound float64 // max allowed sentinel/fast-only ratio
	}{
		{"resnet32", 128, 1.35},
		{"bert-base", 16, 1.15},
		{"dcgan", 128, 1.15},
		{"lstm", 20, 1.35},
	} {
		m := m
		t.Run(m.name, func(t *testing.T) {
			g, err := model.Build(m.name, m.batch)
			if err != nil {
				t.Fatal(err)
			}
			fastSpec := memsys.OptaneHM().WithFastSize(2 * g.PeakMemory())
			rtFast, err := exec.NewRuntime(g, fastSpec, baseline.NewFastOnly())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rtFast.RunSteps(2); err != nil {
				t.Fatal(err)
			}
			rt, _ := runSentinel(t, m.name, m.batch, 0.2, core.DefaultConfig(), 6)
			ratio := float64(rt.Run().SteadyStepTime()) / float64(rtFast.Run().SteadyStepTime())
			if ratio > m.bound {
				t.Errorf("sentinel at 20%% fast is %.2fx fast-only (bound %.2f)", ratio, m.bound)
			}
		})
	}
}

func TestMoreFastMemoryNeverMuchWorse(t *testing.T) {
	// Fig. 10 shape: larger fast memory must not significantly hurt.
	var prev simtime.Duration
	for _, frac := range []float64{0.2, 0.4, 0.6, 1.0} {
		rt, _ := runSentinel(t, "resnet32", 128, frac, core.DefaultConfig(), 5)
		d := rt.Run().SteadyStepTime()
		if prev > 0 && float64(d) > 1.15*float64(prev) {
			t.Errorf("step time grew from %v to %v when fast memory increased to %.0f%%", prev, d, frac*100)
		}
		prev = d
	}
}

func TestProfilingHappensOnceAndOnSlow(t *testing.T) {
	rt, s := runSentinel(t, "resnet32", 64, 0.2, core.DefaultConfig(), 4)
	steps := rt.Run().Steps
	if steps[0].Faults == 0 {
		t.Fatal("no profiling faults in step 0")
	}
	if steps[0].FastBytes != 0 {
		t.Fatal("profiling step touched fast memory")
	}
	for _, st := range steps[1:] {
		if st.Faults != 0 {
			t.Fatalf("step %d took profiling faults", st.Step)
		}
	}
	if s.OverheadSteps() < 1 {
		t.Fatal("overhead accounting lost the profiling step")
	}
}

func TestAblationOrdering(t *testing.T) {
	// Fig. 13's premise: full Sentinel is at least as good as the
	// ablations on a capacity-bound model.
	full, _ := runSentinel(t, "mobilenet", 64, 0.2, core.DefaultConfig(), 5)
	direct, _ := runSentinel(t, "mobilenet", 64, 0.2, core.DirectConfig(), 5)
	fullT := full.Run().SteadyStepTime()
	directT := direct.Run().SteadyStepTime()
	if float64(fullT) > 1.1*float64(directT) {
		t.Errorf("full sentinel (%v) much worse than direct-migration ablation (%v)", fullT, directT)
	}
}

func TestForceMIL(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ForceMIL = 4
	_, s := runSentinel(t, "resnet32", 64, 0.2, cfg, 3)
	if s.Plan().MIL != 4 {
		t.Fatalf("forced MIL not applied: %d", s.Plan().MIL)
	}
}

func TestPlanProperties(t *testing.T) {
	g, err := model.Build("resnet32", 64)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	p, err := profile.Collect(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.BuildPlan(p, spec, core.LayerDecompFromProfile(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.MIL < 1 || pl.MIL > g.NumLayers {
		t.Fatalf("MIL %d out of range", pl.MIL)
	}
	if pl.NumIntervals != (g.NumLayers+pl.MIL-1)/pl.MIL {
		t.Fatal("interval count inconsistent")
	}
	// Every long-lived tensor with accesses in interval k appears in
	// Needs[k].
	inNeeds := make(map[int]map[int]bool)
	for k, ids := range pl.Needs {
		inNeeds[k] = map[int]bool{}
		for _, id := range ids {
			inNeeds[k][int(id)] = true
		}
	}
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		if ts.ShortLived() {
			continue
		}
		for _, a := range ts.PerLayer {
			k := a.Layer / pl.MIL
			if !inNeeds[k][int(ts.ID)] {
				t.Fatalf("%s accessed in interval %d but missing from Needs", ts.Name, k)
			}
		}
	}
	// Eviction safety: no tensor is evicted at a layer when it is
	// accessed in the immediately following layer.
	for l, ids := range pl.EvictAt {
		for _, id := range ids {
			ts := p.ByID(id)
			if next := ts.NextAccessAfter(l); next == l+1 {
				t.Fatalf("%s evicted at %d but needed at %d", ts.Name, l, next)
			}
		}
	}
	// Reserve covers the short-lived peak.
	if pl.Reserve < p.PeakShortLived {
		t.Fatal("reserve below short-lived peak")
	}
}

func TestGroupKeySeparation(t *testing.T) {
	g, err := model.Build("resnet32", 64)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	p, err := profile.Collect(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.BuildPlan(p, spec, core.LayerDecompFromProfile(p), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		truth := g.Tensors[i]
		key := pl.GroupKey(p, truth)
		if ts.ShortLived() && key != core.ShortPoolGroup {
			t.Fatalf("short-lived %s grouped as %q", ts.Name, key)
		}
		if !ts.ShortLived() && key == core.ShortPoolGroup {
			t.Fatalf("long-lived %s landed in the short pool", ts.Name)
		}
	}
	// Tensors with different residences never share a group.
	keys := map[string]string{}
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		if ts.ShortLived() {
			continue
		}
		key := pl.GroupKey(p, g.Tensors[i])
		res := ts.Name
		_ = res
		if prev, ok := keys[key]; ok && prev != residence(ts) {
			t.Fatalf("group %q mixes residences %q and %q", key, prev, residence(ts))
		}
		keys[key] = residence(ts)
	}
}

func residence(ts *profile.TensorStat) string {
	return string(rune(ts.AllocLayer)) + "-" + string(rune(ts.FreeLayer))
}

func TestLowerBound(t *testing.T) {
	g, err := model.Build("resnet32", 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.Collect(g, memsys.OptaneHM())
	if err != nil {
		t.Fatal(err)
	}
	lb := core.LowerBound(p)
	if lb <= p.PeakShortLived {
		t.Fatal("lower bound must exceed the short-lived peak")
	}
	if lb >= g.PeakMemory() {
		t.Fatal("lower bound should be far below total peak")
	}
}

// TestBucketedProfiling exercises the Sec. IV-E dynamic-shape path: a
// workload alternating between two sequence-length buckets is profiled
// once per bucket, then both buckets run managed.
func TestBucketedProfiling(t *testing.T) {
	graphs, err := model.BERTBuckets("base", 8, []int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	peak := graphs[1].PeakMemory()
	spec := memsys.OptaneHM().WithFastSize(peak / 5)
	s := core.NewDefault()
	rt, err := exec.NewRuntime(graphs[0], spec, s)
	if err != nil {
		t.Fatal(err)
	}
	schedule := []int{0, 1, 0, 1, 0, 1, 0, 1}
	for i, idx := range schedule {
		if i > 0 {
			if err := rt.SetGraph(graphs[idx]); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if _, err := rt.RunStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if s.Variants() != 2 {
		t.Fatalf("profiled %d variants, want 2", s.Variants())
	}
	steps := rt.Run().Steps
	// Steps 0 and 1 are profiling steps (one per bucket): they carry
	// protection faults; later steps do not.
	if steps[0].Faults == 0 || steps[1].Faults == 0 {
		t.Fatal("bucket profiling steps missing faults")
	}
	for _, st := range steps[2:] {
		if st.Faults != 0 {
			t.Fatalf("managed step %d took faults", st.Step)
		}
	}
	// Per-bucket steady state: the same bucket's later steps agree.
	d6, d7 := steps[6].Duration, steps[7].Duration
	d4, d5 := steps[4].Duration, steps[5].Duration
	if ratio := float64(d6) / float64(d4); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("bucket-0 steps unstable: %v vs %v", d4, d6)
	}
	if ratio := float64(d7) / float64(d5); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("bucket-1 steps unstable: %v vs %v", d5, d7)
	}
	// The long bucket costs more than the short one.
	if d7 <= d6 {
		t.Errorf("seq-128 step (%v) not slower than seq-64 step (%v)", d7, d6)
	}
}

// TestControlDependencyReprofiling exercises the control-flow path: when a
// new dataflow appears mid-training, Sentinel profiles it once and keeps
// both plans. Every tensor placed in a managed step lands in the arena of
// the running variant's group key, also after a return to a variant
// profiled earlier.
func TestControlDependencyReprofiling(t *testing.T) {
	graphs, err := model.ControlVariants(32, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(graphs[0].PeakMemory() / 5)
	s := core.NewDefault()
	bus := trace.NewBus(1)
	var placed []trace.Event
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.KPlace {
			placed = append(placed, e)
		}
	})
	rt, err := exec.NewRuntime(graphs[0], spec, s, exec.WithTrace(bus, "control"))
	if err != nil {
		t.Fatal(err)
	}
	// Variant 0 runs for a while before variant 1 first appears; steps 0
	// and 3 profile.
	checked := 0
	for i, idx := range []int{0, 0, 0, 1, 0, 1} {
		if i > 0 {
			if err := rt.SetGraph(graphs[idx]); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		placed = placed[:0]
		if _, err := rt.RunStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i == 0 || i == 3 {
			continue
		}
		stale := 0
		for _, e := range placed {
			_, group, _ := strings.Cut(e.Name, "/")
			if group != s.Plan().GroupKey(s.Profile(), graphs[idx].T(e.Tensor)) {
				stale++
			}
		}
		if stale > 0 {
			t.Errorf("step %d (variant %d): %d of %d placements outside the variant's groups", i, idx, stale, len(placed))
		}
		checked += len(placed)
	}
	if checked == 0 {
		t.Fatal("no managed placement was checked")
	}
	if s.Variants() != 2 {
		t.Fatalf("variants %d", s.Variants())
	}
	steps := rt.Run().Steps
	if steps[3].Faults == 0 {
		t.Fatal("new dataflow did not trigger re-profiling")
	}
	if steps[4].Faults != 0 || steps[5].Faults != 0 {
		t.Fatal("known dataflows were re-profiled")
	}
	// Overhead accounting: one profiling step per variant.
	if s.OverheadSteps() < 2 {
		t.Fatalf("overhead steps %d", s.OverheadSteps())
	}
}

// TestVariableMILMinimalBenefit measures the Sec. IV-E claim: variable
// migration interval lengths bring minimal performance benefit over the
// uniform length in practice. Across these cells the variable/uniform
// step-time ratio measures 0.970-1.059: the greedy growth neither wins
// nor loses more than a few percent.
func TestVariableMILMinimalBenefit(t *testing.T) {
	for _, c := range []struct {
		model string
		batch int
		frac  float64
	}{
		{"resnet32", 128, 0.2}, {"resnet32", 128, 0.4},
		{"bert-base", 16, 0.2}, {"bert-base", 16, 0.4},
		{"lstm", 64, 0.2}, {"lstm", 64, 0.4},
	} {
		uniform, _ := runSentinel(t, c.model, c.batch, c.frac, core.DefaultConfig(), 6)
		cfg := core.DefaultConfig()
		cfg.VariableMIL = true
		variable, _ := runSentinel(t, c.model, c.batch, c.frac, cfg, 6)
		u := uniform.Run().SteadyStepTime()
		v := variable.Run().SteadyStepTime()
		if ratio := float64(v) / float64(u); ratio < 0.95 || ratio > 1.07 {
			t.Errorf("%s b%d at %.0f%%: variable MIL changed step time by %.1f%% (uniform %v, variable %v)",
				c.model, c.batch, 100*c.frac, 100*(ratio-1), u, v)
		}
	}
}

// TestVariableBoundariesRespectBudget checks the variable plan's structure:
// boundaries are increasing, cover all layers, and interval prefetch
// volumes respect the growth rule.
func TestVariableBoundariesRespectBudget(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	p, err := profile.Collect(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.BuildPlanVariable(p, spec, core.LayerDecompFromProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Starts[0] != 0 {
		t.Fatal("first interval must start at layer 0")
	}
	for k := 1; k < len(pl.Starts); k++ {
		if pl.Starts[k] <= pl.Starts[k-1] {
			t.Fatal("boundaries not increasing")
		}
		if pl.Starts[k]-pl.Starts[k-1] > 2*pl.MIL {
			t.Fatalf("interval %d longer than 2x base", k-1)
		}
	}
	// Every layer maps to a valid interval.
	for l := 0; l < pl.NumLayers; l++ {
		k := pl.IntervalOf(l)
		if k < 0 || k >= pl.NumIntervals {
			t.Fatalf("layer %d maps to interval %d", l, k)
		}
	}
	// IntervalStart agrees with Starts.
	starts := 0
	for l := 0; l < pl.NumLayers; l++ {
		if pl.IntervalStart(l) {
			starts++
		}
	}
	if starts != pl.NumIntervals {
		t.Fatalf("%d interval starts, %d intervals", starts, pl.NumIntervals)
	}
}
