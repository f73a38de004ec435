package exec_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sentinel/internal/alloc"
	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/tensor"
)

// burstPolicy is a minimal Reprofiler for driving the controller state
// machine deterministically: it places everything on slow memory, and on
// the steps evict selects it pushes the resident weight back to slow at
// step start, so that step demand-migrates (and stalls) on a GPU-like
// machine — a divergence burst on demand.
type burstPolicy struct {
	exec.Base
	rt *exec.Runtime
	// evict selects the steps that open with the weight evicted.
	evict func(step int) bool
	// refuseStart makes ReprofileStart decline; replanErr makes Replan
	// fail after sampling.
	refuseStart bool
	replanErr   error
	starts      int
	replans     int
}

func (p *burstPolicy) Name() string { return "burst" }
func (p *burstPolicy) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{Mode: alloc.Packed, Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Slow }}
}
func (p *burstPolicy) Setup(rt *exec.Runtime) error {
	p.rt = rt
	return nil
}
func (p *burstPolicy) StepStart(step int) {
	if p.evict == nil || !p.evict(step) {
		return
	}
	for id := range p.rt.Graph().Tensors {
		if _, ok := p.rt.Alloc().Region(tensor.ID(id)); ok {
			// Wait the eviction out so this step's accesses really find
			// the tensor slow-resident (migrate-out is asynchronous).
			done, _, _ := p.rt.MigrateTensor(tensor.ID(id), memsys.Slow)
			p.rt.WaitUntil(done)
		}
	}
}
func (p *burstPolicy) ReprofileStart(round int) bool {
	p.starts++
	return !p.refuseStart
}
func (p *burstPolicy) Replan(round int) error {
	p.replans++
	return p.replanErr
}

// alwaysStalling is the divergence judgement every burst step trips: any
// exposed stall flags, demand counting disabled.
func alwaysStalling(window int) exec.DivergenceConfig {
	return exec.DivergenceConfig{StallFrac: 0.0001, DemandFactor: 1000, MinDemand: 1 << 60, Window: window}
}

// runBurst executes the micro workload with the burst policy under the
// given controller config and options.
func runBurst(t *testing.T, p *burstPolicy, steps int, cfg exec.OnlineConfig, opts ...exec.Option) (*metrics.RunStats, error) {
	t.Helper()
	g := microGraph(t, 64<<20)
	rt, err := exec.NewRuntime(g, gpuSpec(256<<20), p,
		append([]exec.Option{exec.WithOnline(cfg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return rt.RunSteps(steps)
}

// edges reduces a controller log to its "step N: from->to" prefixes, so
// tests can pin the transition sequence without coupling to reason text.
func edges(log []string) []string {
	var out []string
	for _, l := range log {
		if i := strings.Index(l, ": "); i >= 0 {
			if j := strings.Index(l[i+2:], ":"); j >= 0 {
				out = append(out, l[:i+2+j])
				continue
			}
		}
		out = append(out, l)
	}
	return out
}

// TestControllerWindowOne drives the full loop with a window of one: a
// single flagged step declares divergence, the next flagged step starts
// sampling, two sampling steps later the plan is swapped, two cooldown
// steps later the controller is healthy again, and once the replan budget
// is spent the next divergence is terminal. The transition log is pinned
// edge by edge.
func TestControllerWindowOne(t *testing.T) {
	p := &burstPolicy{evict: func(int) bool { return true }}
	cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 1, Div: alwaysStalling(1)}
	run, err := runBurst(t, p, 7, cfg)
	if err != nil {
		t.Fatalf("soft-mode run must complete: %v", err)
	}
	if run.Replans != 1 || p.replans != 1 || p.starts != 1 {
		t.Fatalf("replans: run=%d policy=%d starts=%d, want 1 each", run.Replans, p.replans, p.starts)
	}
	if run.RecoveredSteps != 2 {
		t.Fatalf("recovered steps = %d, want 2 (one cooldown window)", run.RecoveredSteps)
	}
	if !run.Diverged {
		t.Fatal("exhausted replan budget must end demand-only")
	}
	if st := p.rt.ControllerState(); st != exec.CtlDemandOnly {
		t.Fatalf("final controller state %v, want demand-only", st)
	}
	want := []string{
		"step 0: healthy->suspect",
		"step 1: suspect->reprofiling",
		"step 3: reprofiling->replanning",
		"step 3: replanning->recovered",
		"step 5: recovered->healthy",
		"step 6: healthy->demand-only",
	}
	if got := edges(run.ControllerLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("transition log:\n got %q\nwant %q", got, want)
	}
}

// TestControllerDivergenceOnFinalStep checks the loop truncating cleanly
// at the end of a run: a divergence declared on the last step leaves the
// controller suspect (or mid-sampling) with nothing swapped and no error.
func TestControllerDivergenceOnFinalStep(t *testing.T) {
	t.Run("suspect", func(t *testing.T) {
		p := &burstPolicy{evict: func(int) bool { return true }}
		cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 1, Div: alwaysStalling(1)}
		run, err := runBurst(t, p, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Steps[0].Diverged {
			t.Fatal("final step not marked diverged")
		}
		if run.Diverged || run.Replans != 0 {
			t.Fatalf("truncated recovery must not degrade or replan: %+v", run)
		}
		if st := p.rt.ControllerState(); st != exec.CtlSuspect {
			t.Fatalf("controller state %v, want suspect", st)
		}
	})
	t.Run("mid-sampling", func(t *testing.T) {
		p := &burstPolicy{evict: func(int) bool { return true }}
		cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 1, Div: alwaysStalling(1)}
		// Step 0 suspect, step 1 starts sampling, step 2 is the first of
		// the round's two sampling steps and the run's last.
		run, err := runBurst(t, p, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if run.Replans != 0 || p.replans != 0 {
			t.Fatal("sampling round truncated by run end must not replan")
		}
		if st := p.rt.ControllerState(); st != exec.CtlReprofiling {
			t.Fatalf("controller state %v, want reprofiling", st)
		}
	})
}

// TestControllerFallbacks covers the paths into demand-only mode and the
// error chain under fail-hard: a policy that cannot re-profile degrades
// with ErrPlanDiverged, a failed replan with ErrReplanFailed — and
// errors.Is(ErrReplanFailed, ErrPlanDiverged) holds, so divergence-aware
// callers see both the same way.
func TestControllerFallbacks(t *testing.T) {
	cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 2, Div: alwaysStalling(1)}

	t.Run("refusal soft", func(t *testing.T) {
		p := &burstPolicy{evict: func(int) bool { return true }, refuseStart: true}
		run, err := runBurst(t, p, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Diverged || run.Replans != 0 {
			t.Fatalf("refused re-profile must degrade without replans: %+v", run)
		}
		if !strings.Contains(strings.Join(run.ControllerLog, "\n"), "cannot re-profile") {
			t.Fatalf("fallback reason missing from log: %q", run.ControllerLog)
		}
	})
	t.Run("refusal hard", func(t *testing.T) {
		p := &burstPolicy{evict: func(int) bool { return true }, refuseStart: true}
		_, err := runBurst(t, p, 3, cfg, exec.WithFailHard())
		if !errors.Is(err, exec.ErrPlanDiverged) {
			t.Fatalf("err = %v, want ErrPlanDiverged", err)
		}
		if errors.Is(err, exec.ErrReplanFailed) {
			t.Fatalf("refusal is not a failed replan: %v", err)
		}
	})
	t.Run("replan failure soft", func(t *testing.T) {
		p := &burstPolicy{evict: func(int) bool { return true }, replanErr: errors.New("no viable plan")}
		run, err := runBurst(t, p, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Diverged {
			t.Fatal("failed replan must degrade to demand-only")
		}
	})
	t.Run("replan failure hard", func(t *testing.T) {
		p := &burstPolicy{evict: func(int) bool { return true }, replanErr: errors.New("no viable plan")}
		_, err := runBurst(t, p, 4, cfg, exec.WithFailHard())
		if !errors.Is(err, exec.ErrReplanFailed) {
			t.Fatalf("err = %v, want ErrReplanFailed", err)
		}
		if !errors.Is(err, exec.ErrPlanDiverged) {
			t.Fatalf("ErrReplanFailed must wrap ErrPlanDiverged, got %v", err)
		}
	})
}

// TestControllerCooldownHysteresis is the no-flapping property under
// back-to-back bursts: every step diverges, yet the controller performs
// exactly MaxReplans spaced rebuilds — cooldown steps ignore verdicts, so
// a burst landing inside one never re-triggers sampling.
func TestControllerCooldownHysteresis(t *testing.T) {
	p := &burstPolicy{evict: func(int) bool { return true }}
	cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 2, Div: alwaysStalling(1)}
	run, err := runBurst(t, p, 14, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Replans != 2 {
		t.Fatalf("replans = %d, want exactly MaxReplans (2) despite 14 diverging steps", run.Replans)
	}
	want := []string{
		"step 0: healthy->suspect",
		"step 1: suspect->reprofiling",
		"step 3: reprofiling->replanning",
		"step 3: replanning->recovered",
		"step 5: recovered->healthy",
		"step 6: healthy->suspect",
		"step 7: suspect->reprofiling",
		"step 9: reprofiling->replanning",
		"step 9: replanning->recovered",
		"step 11: recovered->healthy",
		"step 12: healthy->demand-only",
	}
	if got := edges(run.ControllerLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("transition log:\n got %q\nwant %q", got, want)
	}
	if run.RecoveredSteps != 4 {
		t.Fatalf("recovered steps = %d, want 4 (two per cooldown window)", run.RecoveredSteps)
	}
}

// TestControllerShrinkDuringReprofiling lands a capacity shrink in the
// middle of a sampling round: the round must complete against the shrunken
// machine and the swap still happen, with no wedge and no error. Sampling
// starts at the close of step 1 and observes steps 2 and 3; the shrink
// lands at step 3, between the round's two sampling steps.
func TestControllerShrinkDuringReprofiling(t *testing.T) {
	p := &burstPolicy{evict: func(int) bool { return true }}
	cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 1, Div: alwaysStalling(1)}
	run, err := runBurst(t, p, 5, cfg,
		exec.WithChaos(chaos.New(chaos.Config{Seed: 1, ShrinkAtStep: 3, ShrinkFrac: 0.5})))
	if err != nil {
		t.Fatal(err)
	}
	if run.Replans != 1 || p.replans != 1 {
		t.Fatalf("replans = %d (policy %d), want 1: the shrunken round must still swap", run.Replans, p.replans)
	}
	log := strings.Join(run.ControllerLog, "\n")
	if !strings.Contains(log, "plan swapped") {
		t.Fatalf("no plan swap in log:\n%s", log)
	}
}

// TestControllerDeterminism: identical seeds and knobs reproduce the whole
// run — stats, recovery counters, and the transition log — byte for byte.
func TestControllerDeterminism(t *testing.T) {
	cfg := exec.OnlineConfig{Enabled: true, MaxReplans: 2, Div: alwaysStalling(1)}
	one := func() *metrics.RunStats {
		p := &burstPolicy{evict: func(step int) bool { return step%2 == 0 }}
		run, err := runBurst(t, p, 10, cfg,
			exec.WithChaos(chaos.New(chaos.Config{Seed: 7, MigrateFail: 0.4})))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a, b := one(), one()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds produced different runs:\n%q\nvs\n%q", a.ControllerLog, b.ControllerLog)
	}
}
