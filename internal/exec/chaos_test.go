package exec_test

import (
	"errors"
	"reflect"
	"regexp"
	"testing"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// twoActGraph builds a 3-layer graph producing two activations of actBytes
// each, sized so that fast memory holds one but not both — the smallest
// workload that forces the OOM-eviction retry inside ensureResident.
func twoActGraph(t *testing.T, actBytes int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("two-act", 1)
	w := b.Prealloc("w", tensor.Weight, 4096)
	b.BeginLayer()
	op := b.Op("produce-a", 1e9)
	op.Read(w, 1)
	a := op.Alloc("a", tensor.Activation, actBytes)
	op.Write(a, 1)
	b.EndLayer()
	b.BeginLayer()
	op2 := b.Op("produce-b", 1e9)
	bb := op2.Alloc("b", tensor.Activation, actBytes)
	op2.Write(bb, 1)
	b.EndLayer()
	b.BeginLayer()
	op3 := b.Op("consume", 1e9)
	op3.Read(a, 1)
	op3.Read(bb, 1)
	op3.Free(a)
	op3.Free(bb)
	b.EndLayer()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// evictAllPolicy extends the slow allocator with an evictor that pushes
// resident tensors back to slow memory on request — enough for the engine's
// OOM retry loop to succeed on the second attempt.
type evictAllPolicy struct{ slowAllocPolicy }

func (evictAllPolicy) MakeRoom(rt *exec.Runtime, need int64) int64 {
	var freed int64
	for id := range rt.Graph().Tensors {
		if _, ok := rt.Alloc().Region(tensor.ID(id)); !ok {
			continue
		}
		_, moved, _ := rt.MigrateTensor(tensor.ID(id), memsys.Slow)
		freed += moved
		if freed >= need {
			break
		}
	}
	return freed
}

// TestOOMRetryEvictionTraced drives the OOM-eviction retry path: the
// consume op reads both activations but fast memory holds only one, so
// each residency check finds the tier full, the retry loop evicts via the
// policy, and the demand migration then succeeds. The retries must be
// visible in the trace as oom-retry events carrying the shortfall and
// attempt number.
func TestOOMRetryEvictionTraced(t *testing.T) {
	g := twoActGraph(t, 64<<20)
	bus := trace.NewBus(0)
	rt, err := exec.NewRuntime(g, gpuSpec(96<<20), &evictAllPolicy{}, exec.WithTrace(bus, ""))
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.RunStep()
	if err != nil {
		t.Fatalf("step should complete after eviction retry: %v", err)
	}
	if st.DemandMigrations < 2 {
		t.Fatalf("demand migrations = %d, want >= 2", st.DemandMigrations)
	}
	var retries []trace.Event
	for _, e := range bus.Events() {
		if e.Kind == trace.KOOMRetry {
			retries = append(retries, e)
		}
	}
	if len(retries) == 0 {
		t.Fatal("no oom-retry events traced for a run that needed eviction")
	}
	for _, e := range retries {
		if e.Bytes <= 0 {
			t.Fatalf("oom-retry without a shortfall: %v", e)
		}
		if e.Count < 1 || e.Count > 3 {
			t.Fatalf("oom-retry attempt out of range: %v", e)
		}
		if e.Name != "a" && e.Name != "b" {
			t.Fatalf("oom-retry attributed to %q, want a blocked activation", e.Name)
		}
	}
	if retries[0].Count != 1 {
		t.Fatalf("first retry attempt = %d, want 1", retries[0].Count)
	}
}

// runMicro executes the micro workload for steps steps with the given
// options and returns the run stats plus the rendered trace stream.
func runMicro(t *testing.T, steps int, opts ...exec.Option) (*metrics.RunStats, []string) {
	t.Helper()
	g := microGraph(t, 64<<20)
	bus := trace.NewBus(0)
	rt, err := exec.NewRuntime(g, gpuSpec(256<<20), &slowAllocPolicy{},
		append([]exec.Option{exec.WithTrace(bus, "")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	run, err := rt.RunSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range bus.Events() {
		lines = append(lines, e.String())
	}
	return run, lines
}

// TestChaosZeroKnobsByteIdentical is acceptance criterion 4: a runtime with
// the chaos layer attached but every knob at zero behaves byte-for-byte
// like a clean runtime — stats and the full trace stream included. A bare
// seed does not enable injection.
func TestChaosZeroKnobsByteIdentical(t *testing.T) {
	clean, cleanTrace := runMicro(t, 3)
	for name, inj := range map[string]*chaos.Injector{
		"nil injector":   nil,
		"zero config":    chaos.New(chaos.Config{}),
		"seed only":      chaos.New(chaos.Config{Seed: 12345}),
		"shrink unarmed": chaos.New(chaos.Config{Seed: 1, ShrinkAtStep: -1, ShrinkFrac: 0.5}),
	} {
		got, gotTrace := runMicro(t, 3, exec.WithChaos(inj))
		if !reflect.DeepEqual(clean, got) {
			t.Fatalf("%s: run stats differ from clean run", name)
		}
		if !reflect.DeepEqual(cleanTrace, gotTrace) {
			t.Fatalf("%s: trace stream differs from clean run", name)
		}
	}
}

// TestChaosSeedReproducible is acceptance criterion 3: two runs with
// identical seeds produce identical results, down to the trace stream.
func TestChaosSeedReproducible(t *testing.T) {
	cfg := chaos.Config{Seed: 7, MigrateFail: 0.4, MigrateSlow: 0.3, ComputeJitter: 0.2}
	// A fresh injector per run: the migration-failure stream is stateful.
	a, aTrace := runMicro(t, 5, exec.WithChaos(chaos.New(cfg)))
	b, bTrace := runMicro(t, 5, exec.WithChaos(chaos.New(cfg)))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different run stats")
	}
	if !reflect.DeepEqual(aTrace, bTrace) {
		t.Fatal("identical seeds produced different trace streams")
	}
}

// TestMigrateFailCompletesDegraded is the graceful-degradation half of the
// acceptance criteria: under heavy migration failure the run still
// completes — via retries and, when the budget runs out, zero-copy
// fallback — and the pain is visible as retries, a slowdown over clean,
// and migrate-retry/degrade trace events.
func TestMigrateFailCompletesDegraded(t *testing.T) {
	clean, _ := runMicro(t, 5)
	run, lines := runMicro(t, 5, exec.WithChaos(chaos.New(chaos.Config{Seed: 3, MigrateFail: 0.6})))
	var retries int64
	for _, st := range run.Steps {
		retries += st.MigrateRetries
	}
	if retries == 0 {
		t.Fatal("no migrate retries under 60% failure injection")
	}
	if run.SteadyStepTime() <= clean.SteadyStepTime() {
		t.Fatalf("faulty steady step %v not slower than clean %v",
			run.SteadyStepTime(), clean.SteadyStepTime())
	}
	var sawRetry bool
	for _, l := range lines {
		if len(l) > 0 && containsKind(l, string(trace.KMigrateRetry)) {
			sawRetry = true
			break
		}
	}
	if !sawRetry {
		t.Fatal("no migrate-retry events in the trace stream")
	}
}

func containsKind(line, kind string) bool {
	for i := 0; i+len(kind) <= len(line); i++ {
		if line[i:i+len(kind)] == kind {
			return true
		}
	}
	return false
}

// TestDemandMigrateAbandonDegrades checks the end of the demand path's
// retry budget: under 95% migration failure most demand migrations are
// abandoned, and each abandoned tensor falls back to zero-copy access
// instead of failing the run — counted in the step stats and traced as a
// zero-copy degrade event.
func TestDemandMigrateAbandonDegrades(t *testing.T) {
	bus := trace.NewBus(0)
	rt, err := exec.NewRuntime(microGraph(t, 64<<20), gpuSpec(256<<20), &slowAllocPolicy{},
		exec.WithTrace(bus, ""), exec.WithChaos(chaos.New(chaos.Config{Seed: 1, MigrateFail: 0.95})))
	if err != nil {
		t.Fatal(err)
	}
	run, err := rt.RunSteps(5)
	if err != nil {
		t.Fatalf("abandoned demand migrations must degrade, not fail: %v", err)
	}
	var degraded, traced int64
	for _, st := range run.Steps {
		degraded += st.Degraded
	}
	for _, e := range bus.Events() {
		if e.Kind == trace.KDegrade && e.Count == trace.DegradeZeroCopy {
			traced++
		}
	}
	if degraded == 0 {
		t.Fatal("no tensor degraded under 95% migration failure")
	}
	if traced != degraded {
		t.Fatalf("%d zero-copy degrade events traced, want %d (one per degraded tensor)", traced, degraded)
	}
}

// TestCapacityShrinkTypedError checks mid-run fast-tier shrink: once the
// tier no longer holds the working set, the failure is the typed
// ErrCapacityShrunk, which still satisfies errors.Is(err, ErrOOM), and the
// shrink itself is traced.
func TestCapacityShrinkTypedError(t *testing.T) {
	g := microGraph(t, 64<<20)
	bus := trace.NewBus(0)
	rt, err := exec.NewRuntime(g, gpuSpec(80<<20), &slowAllocPolicy{},
		exec.WithTrace(bus, ""),
		exec.WithChaos(chaos.New(chaos.Config{Seed: 1, ShrinkAtStep: 1, ShrinkFrac: 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunStep(); err != nil {
		t.Fatalf("pre-shrink step failed: %v", err)
	}
	_, err = rt.RunStep()
	if err == nil {
		t.Fatal("step after 90% fast-tier shrink did not error")
	}
	if !errors.Is(err, exec.ErrCapacityShrunk) {
		t.Fatalf("error is not ErrCapacityShrunk: %v", err)
	}
	if !errors.Is(err, exec.ErrOOM) {
		t.Fatalf("ErrCapacityShrunk must still be an ErrOOM: %v", err)
	}
	var shrunk bool
	for _, e := range bus.Events() {
		if e.Kind == trace.KCapShrink && e.Bytes > 0 {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatal("no capacity-shrink event traced")
	}
}

// TestDivergenceMonitor checks the controller with no replan budget, the
// one a fault injector alone arms. The burst workload demand-migrates all
// of its weights from step 1 against step 0's zero baseline, so the
// window of two fills at step 2 and the first divergence falls straight
// back to demand-only mode.
func TestDivergenceMonitor(t *testing.T) {
	edge := regexp.MustCompile(`^step 2: healthy->demand-only: replan budget exhausted: 8 demand migrations vs best 0$`)

	t.Run("soft", func(t *testing.T) {
		bus := trace.NewBus(0)
		rt, err := exec.NewRuntime(burstGraph(t), gpuSpec(256<<20), &burstPolicy{evict: fromStep1},
			exec.WithTrace(bus, ""), exec.WithChaos(chaos.New(chaos.Config{Seed: 1, MigrateSlow: 0.5})))
		if err != nil {
			t.Fatal(err)
		}
		run, err := rt.RunSteps(4)
		if err != nil {
			t.Fatalf("divergence must complete degraded: %v", err)
		}
		if !run.Diverged || !run.Steps[2].Diverged {
			t.Fatal("run not marked diverged at step 2")
		}
		var sawDiverge, sawDemandOnly bool
		var transitions int
		for _, e := range bus.Events() {
			switch e.Kind {
			case trace.KPlanDiverged:
				sawDiverge = true
			case trace.KDegrade:
				if e.Count == trace.DegradeDemandOnly {
					sawDemandOnly = true
				}
			case trace.KCtlTransition:
				transitions++
			}
		}
		if !sawDiverge || !sawDemandOnly {
			t.Fatalf("missing divergence trace events (diverged=%v demand-only=%v)",
				sawDiverge, sawDemandOnly)
		}
		if len(run.ControllerLog) != 1 || !edge.MatchString(run.ControllerLog[0]) {
			t.Fatalf("controller log = %q, want one healthy->demand-only budget edge", run.ControllerLog)
		}
		if transitions != 1 {
			t.Fatalf("%d controller-transition events, want 1", transitions)
		}
		if st := rt.ControllerState(); st != exec.CtlDemandOnly {
			t.Fatalf("controller state %v, want demand-only", st)
		}
	})

	t.Run("chaos-only", func(t *testing.T) {
		// Even a policy able to re-profile is never asked to.
		p := &burstPolicy{evict: fromStep1}
		rt, err := exec.NewRuntime(burstGraph(t), gpuSpec(256<<20), p,
			exec.WithChaos(chaos.New(chaos.Config{Seed: 1, MigrateFail: 0.1})))
		if err != nil {
			t.Fatal(err)
		}
		run, err := rt.RunSteps(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(run.ControllerLog) != 1 || !edge.MatchString(run.ControllerLog[0]) {
			t.Fatalf("controller log = %q, want one healthy->demand-only budget edge at step 2", run.ControllerLog)
		}
		if p.starts != 0 || p.replans != 0 || run.Replans != 0 {
			t.Fatalf("chaos-only run re-profiled: starts=%d replans=%d run.Replans=%d", p.starts, p.replans, run.Replans)
		}
	})
}

// TestDerateSlowsMigration checks the bandwidth-derating knob end to end:
// halving the interconnect makes the migration-bound first step slower
// (steady steps of the micro workload stay resident and migrate nothing)
// but injects no failures.
func TestDerateSlowsMigration(t *testing.T) {
	clean, _ := runMicro(t, 3)
	slow, _ := runMicro(t, 3, exec.WithChaos(chaos.New(chaos.Config{Seed: 1, MigrateSlow: 0.5})))
	if slow.TotalTime() <= clean.TotalTime() {
		t.Fatalf("derated run %v not slower than clean %v",
			slow.TotalTime(), clean.TotalTime())
	}
	var retries int64
	for _, st := range slow.Steps {
		retries += st.MigrateRetries
	}
	if retries != 0 {
		t.Fatalf("derating alone injected %d retries", retries)
	}
}
