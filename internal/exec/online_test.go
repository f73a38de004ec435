package exec_test

import (
	"errors"
	"fmt"
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

// burstWeights is how many weights the burst workload reads each step:
// exactly the monitor's demand floor, so a step that finds them all
// evicted is flagged against a clean baseline.
const burstWeights = 8

// burstGraph is the controller workload: one op reading burstWeights
// page-aligned weights, so every evicted weight is one demand migration.
func burstGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("burst", 1)
	ws := make([]tensor.ID, burstWeights)
	for i := range ws {
		ws[i] = b.Prealloc(fmt.Sprintf("w%d", i), tensor.Weight, 1<<20)
	}
	b.BeginLayer()
	op := b.Op("read", 1e9)
	for _, w := range ws {
		op.Read(w, 1)
	}
	b.EndLayer()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// burstPolicy is a minimal Reprofiler for driving the controller state
// machine deterministically with real demand pressure: it places
// everything on fast memory, so step 0 needs no demand migration and
// sets a zero baseline, and on the steps evict selects it pushes every
// weight back to slow at step start, so that step demand-migrates all
// burstWeights of them on a GPU-like machine — a divergence burst on
// demand.
type burstPolicy struct {
	exec.Base
	rt *exec.Runtime
	// evict selects the steps that open with the weights evicted.
	evict func(step int) bool
	// quietAfterReplan makes the first step after each Replan open
	// without an eviction, as if the new plan fit for one step.
	quietAfterReplan bool
	quiet            bool
	// refuseStart makes ReprofileStart decline; replanErr makes Replan
	// fail after sampling.
	refuseStart bool
	replanErr   error
	starts      int
	replans     int
}

// fromStep1 evicts on every step but the baseline step 0.
func fromStep1(step int) bool { return step > 0 }

func (p *burstPolicy) Name() string { return "burst" }
func (p *burstPolicy) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{Mode: alloc.Packed, Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Fast }}
}
func (p *burstPolicy) Setup(rt *exec.Runtime) error {
	p.rt = rt
	return nil
}
func (p *burstPolicy) StepStart(step int) {
	if p.quiet {
		p.quiet = false
		return
	}
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
	p.quiet = p.quietAfterReplan && p.replanErr == nil
	return p.replanErr
}

// runBurst executes the burst workload with the burst policy under the
// online controller and the given options.
func runBurst(t *testing.T, p *burstPolicy, steps int, opts ...exec.Option) (*metrics.RunStats, error) {
	t.Helper()
	rt, err := exec.NewRuntime(burstGraph(t), gpuSpec(256<<20), p,
		append([]exec.Option{exec.WithOnline(exec.DefaultOnline())}, opts...)...)
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

// TestControllerFullLoop drives the loop once end to end: two flagged
// steps declare divergence, a third confirms it and starts sampling, two
// sampling steps later the plan is swapped, and two cooldown steps later
// the controller is healthy again. The bursts never stop, but the swap
// resets the best-step baseline, so the replacement plan's steady burst
// is its own normal and the controller settles instead of flapping. The
// transition log is pinned edge by edge.
func TestControllerFullLoop(t *testing.T) {
	p := &burstPolicy{evict: fromStep1}
	run, err := runBurst(t, p, 12)
	if err != nil {
		t.Fatalf("run must complete: %v", err)
	}
	if run.Replans != 1 || p.replans != 1 || p.starts != 1 {
		t.Fatalf("replans: run=%d policy=%d starts=%d, want 1 each", run.Replans, p.replans, p.starts)
	}
	if run.RecoveredSteps != 2 {
		t.Fatalf("recovered steps = %d, want 2 (one cooldown window)", run.RecoveredSteps)
	}
	if run.Diverged {
		t.Fatal("a swapped plan whose steps stay at its own baseline must not degrade")
	}
	if st := p.rt.ControllerState(); st != exec.CtlHealthy {
		t.Fatalf("final controller state %v, want healthy", st)
	}
	if d := run.Steps[1].DemandMigrations; d != burstWeights {
		t.Fatalf("burst step demand migrations = %d, want %d", d, burstWeights)
	}
	want := []string{
		"step 2: healthy->suspect",
		"step 3: suspect->reprofiling",
		"step 5: reprofiling->replanning",
		"step 5: replanning->recovered",
		"step 7: recovered->healthy",
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
		p := &burstPolicy{evict: fromStep1}
		// Steps 1 and 2 fill the window; step 2 is the run's last.
		run, err := runBurst(t, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Steps[2].Diverged {
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
		p := &burstPolicy{evict: fromStep1}
		// Step 2 suspect, step 3 starts sampling, step 4 is the first of
		// the round's two sampling steps and the run's last.
		run, err := runBurst(t, p, 5)
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

// TestControllerFallbacks covers the two paths into demand-only mode
// besides a spent budget: a policy that cannot re-profile, and a replan
// that fails. Each run completes degraded, and its log names its own
// cause, so a refusal is never reported as a failed replan.
func TestControllerFallbacks(t *testing.T) {
	t.Run("refusal soft", func(t *testing.T) {
		p := &burstPolicy{evict: fromStep1, refuseStart: true}
		run, err := runBurst(t, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Diverged || run.Replans != 0 {
			t.Fatalf("refused re-profile must degrade without replans: %+v", run)
		}
		log := strings.Join(run.ControllerLog, "\n")
		if !strings.Contains(log, "step 3: suspect->demand-only: policy cannot re-profile") {
			t.Fatalf("fallback reason missing from log: %q", run.ControllerLog)
		}
		if strings.Contains(log, "replan failed") {
			t.Fatalf("refusal logged as a failed replan: %q", run.ControllerLog)
		}
	})
	t.Run("replan failure soft", func(t *testing.T) {
		p := &burstPolicy{evict: fromStep1, replanErr: errors.New("no viable plan")}
		run, err := runBurst(t, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Diverged || run.Replans != 1 {
			t.Fatalf("failed replan must degrade to demand-only after one attempt: %+v", run)
		}
		want := "step 5: replanning->demand-only: replan failed: no viable plan"
		if log := strings.Join(run.ControllerLog, "\n"); !strings.Contains(log, want) {
			t.Fatalf("log %q lacks %q", run.ControllerLog, want)
		}
		if st := p.rt.ControllerState(); st != exec.CtlDemandOnly {
			t.Fatalf("controller state %v, want demand-only", st)
		}
	})
}

// TestControllerCooldownHysteresis is the no-flapping property under
// back-to-back bursts: each replacement plan fits for one step, then the
// bursts resume, yet the controller performs exactly its two spaced
// rebuilds and then falls back to demand-only. The burst landing on each
// cooldown's second step is flagged but ignored: were it counted, the
// next suspect edge would come a step early.
func TestControllerCooldownHysteresis(t *testing.T) {
	p := &burstPolicy{evict: fromStep1, quietAfterReplan: true}
	run, err := runBurst(t, p, 18)
	if err != nil {
		t.Fatal(err)
	}
	if run.Replans != 2 {
		t.Fatalf("replans = %d, want exactly the budget (2) despite 15 burst steps", run.Replans)
	}
	want := []string{
		"step 2: healthy->suspect",
		"step 3: suspect->reprofiling",
		"step 5: reprofiling->replanning",
		"step 5: replanning->recovered",
		"step 7: recovered->healthy",
		"step 9: healthy->suspect",
		"step 10: suspect->reprofiling",
		"step 12: reprofiling->replanning",
		"step 12: replanning->recovered",
		"step 14: recovered->healthy",
		"step 16: healthy->demand-only",
	}
	if got := edges(run.ControllerLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("transition log:\n got %q\nwant %q", got, want)
	}
	if run.RecoveredSteps != 4 {
		t.Fatalf("recovered steps = %d, want 4 (two per cooldown window)", run.RecoveredSteps)
	}
	if !run.Diverged {
		t.Fatal("divergence after the budget is spent must end demand-only")
	}
	if st := p.rt.ControllerState(); st != exec.CtlDemandOnly {
		t.Fatalf("final controller state %v, want demand-only", st)
	}
}

// TestControllerShrinkDuringReprofiling lands a capacity shrink in the
// middle of a sampling round: the round must complete against the shrunken
// machine and the swap still happen, with no wedge and no error. Sampling
// starts at the close of step 3 and observes steps 4 and 5; the shrink
// lands at step 5, the round's second sampling step.
func TestControllerShrinkDuringReprofiling(t *testing.T) {
	p := &burstPolicy{evict: fromStep1}
	run, err := runBurst(t, p, 7,
		exec.WithChaos(chaos.New(chaos.Config{Seed: 1, ShrinkAtStep: 5, ShrinkFrac: 0.5})))
	if err != nil {
		t.Fatal(err)
	}
	if run.Replans != 1 || p.replans != 1 {
		t.Fatalf("replans = %d (policy %d), want 1: the shrunken round must still swap", run.Replans, p.replans)
	}
	log := strings.Join(run.ControllerLog, "\n")
	if !strings.Contains(log, "step 5: replanning->recovered: plan swapped") {
		t.Fatalf("no plan swap at step 5 in log:\n%s", log)
	}
}

// TestControllerDeterminism: identical seeds reproduce the whole run —
// stats, recovery counters, and the transition log — byte for byte.
func TestControllerDeterminism(t *testing.T) {
	one := func() *metrics.RunStats {
		p := &burstPolicy{evict: fromStep1, quietAfterReplan: true}
		run, err := runBurst(t, p, 10,
			exec.WithChaos(chaos.New(chaos.Config{Seed: 7, MigrateFail: 0.4})))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a, b := one(), one()
	if len(a.ControllerLog) == 0 {
		t.Fatal("controller never left healthy; the run checks nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds produced different runs:\n%q\nvs\n%q", a.ControllerLog, b.ControllerLog)
	}
}
