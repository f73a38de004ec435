package exec

import (
	"fmt"

	"sentinel/internal/metrics"
	"sentinel/internal/trace"
)

// Online Sentinel: the adaptive controller that closes the
// detect -> re-profile -> replan -> recover loop. WithChaos alone arms it
// with no replan budget, so the first declared divergence falls back to
// demand-only mode; WithOnline gives it a budget. The state machine:
//
//	healthy -> suspect -> reprofiling -> replanning -> recovered
//	                \______________________________/      |
//	                         demand-only  <---------------+
//
// Hysteresis keeps it from flapping: divergence must persist for the
// monitor's window plus one more suspect step before sampling starts, a
// successful swap is followed by cooldown steps during which verdicts are
// ignored (the baseline still re-learns), and at most onlineReplans
// rebuilds are attempted per run — after that, or when replanning itself
// fails, the controller falls back to demand-only mode.

// CtlState is one state of the online controller.
//
// TestCtlStateClosed pins the machine's shape: exactly six named states,
// and one clean step from each either errors (CtlReplanning) or lands in
// a named state. Only transition writes the state; the transition-log
// assertions of TestControllerCooldownHysteresis and
// TestControllerFullLoop see every edge it records.
type CtlState int

// Controller states, in escalation order. CtlReplanning is transient:
// the rebuild happens inside one step boundary, so the state is visible
// in the transition log and trace but never spans a step.
const (
	CtlHealthy CtlState = iota
	CtlSuspect
	CtlReprofiling
	CtlReplanning
	CtlRecovered
	CtlDemandOnly
)

// String names the state for logs and trace events.
func (s CtlState) String() string {
	switch s {
	case CtlHealthy:
		return "healthy"
	case CtlSuspect:
		return "suspect"
	case CtlReprofiling:
		return "reprofiling"
	case CtlReplanning:
		return "replanning"
	case CtlRecovered:
		return "recovered"
	case CtlDemandOnly:
		return "demand-only"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The controller's fixed hysteresis and re-profiling shape.
const (
	// sampleSteps is how many steps a re-profiling round observes.
	sampleSteps = 2
	// cooldownSteps is how many recovered steps the monitor's verdicts
	// are ignored after a plan swap (its baseline still re-learns), so
	// the swap's own migration delta never re-triggers the controller.
	cooldownSteps = 2
	// SampleEvery selects every n-th long-lived tensor (by profiled
	// access rank) for re-poisoning; the offset rotates with the round
	// index.
	SampleEvery = 2
	// Decay is the weight of the old profile in the blended access
	// counts: blended = Decay*old + (1-Decay)*observed.
	Decay = 0.25
	// onlineReplans caps plan rebuilds per run under WithOnline; the
	// controller a fault injector alone arms has none.
	onlineReplans = 2
)

// OnlineConfig configures the adaptive controller. The zero value is
// disabled; DefaultOnline returns the enabled config the -online flag
// arms.
type OnlineConfig struct {
	// Enabled arms the recovery loop with a budget of onlineReplans
	// rebuilds. Off, WithOnline attaches nothing; a fault injector alone
	// still arms the controller, with no replan budget.
	Enabled bool
}

// DefaultOnline returns the enabled controller.
func DefaultOnline() OnlineConfig {
	return OnlineConfig{Enabled: true}
}

// Key canonicalizes the config for cache keys from every field, so a
// field added later cannot be left out; empty when disabled, so offline
// cells keep their pre-online keys.
func (c OnlineConfig) Key() string {
	if !c.Enabled {
		return ""
	}
	// fields drops String, so %+v prints every field by name.
	type fields OnlineConfig
	return fmt.Sprintf("online|%+v", fields(c))
}

// String summarizes the controller for logs.
func (c OnlineConfig) String() string {
	if !c.Enabled {
		return "online off"
	}
	return fmt.Sprintf("dwell 1, sample %d steps every %d, cooldown %d, max %d replans, decay %g",
		sampleSteps, SampleEvery, cooldownSteps, onlineReplans, Decay)
}

// WithOnline arms the adaptive controller. A disabled config attaches
// nothing, keeping the zero-knob run byte-identical to one without the
// online subsystem.
func WithOnline(cfg OnlineConfig) Option {
	return func(rt *Runtime) {
		if cfg.Enabled {
			rt.ctl = newController(onlineReplans)
		}
	}
}

// newController builds the per-run state machine that WithOnline and a
// chaos-only NewRuntime both arm, allowed maxReplans plan rebuilds.
func newController(maxReplans int) *onlineController {
	return &onlineController{maxReplans: maxReplans, mon: divMonitor{bestDemand: -1}}
}

// Reprofiler is the optional Policy extension the online controller
// drives: a policy that can re-measure access counts mid-run and rebuild
// its migration plan from them. Sentinel implements it; a policy that
// does not (or a Sentinel still in its initial profiling step) sends the
// controller straight to demand-only fallback.
type Reprofiler interface {
	// ReprofileStart arms sampled re-profiling for the coming steps.
	// It reports false when re-profiling is not possible right now
	// (no plan yet, a profiling step in flight, nothing to sample).
	ReprofileStart(round int) bool
	// Replan finishes the sampling round, rebuilds the migration plan
	// from blended access counts, and hot-swaps it. An error means the
	// old plan stays in effect.
	Replan(round int) error
}

// onlineController is the per-run state machine.
type onlineController struct {
	// maxReplans caps plan rebuilds per run; exhausted, the controller
	// falls back to demand-only mode.
	maxReplans int
	state      CtlState
	// mon judges each step; the controller owns the windowing.
	mon divMonitor
	// sampleLeft counts down the re-profiling round's remaining steps.
	sampleLeft int
	// cooldown counts down recovered steps with verdicts ignored.
	cooldown int
	// replans counts plan rebuilds performed.
	replans int
	// round numbers re-profiling rounds, for sample rotation and traces.
	round int
}

// transition moves the controller to a new state, logging the edge in the
// run stats and on the trace bus.
func (rt *Runtime) transition(step int, to CtlState, reason string) {
	c := rt.ctl
	edge := fmt.Sprintf("%s->%s: %s", c.state, to, reason)
	c.state = to
	rt.run.ControllerLog = append(rt.run.ControllerLog, fmt.Sprintf("step %d: %s", step, edge))
	rt.emit(trace.Event{At: rt.now, Kind: trace.KCtlTransition, Tensor: trace.NoTensor,
		Name: edge, Count: int64(to)})
}

// fallbackDemandOnly is the controller's terminal degradation: demand-only
// mode, prefetch suppressed run-wide.
func (rt *Runtime) fallbackDemandOnly(st *metrics.StepStats, reason string) {
	st.Diverged = true
	rt.run.Diverged = true
	rt.transition(st.Step, CtlDemandOnly, reason)
	rt.demandOnly = true
	rt.emit(trace.Event{At: rt.now, Kind: trace.KDegrade, Tensor: trace.NoTensor,
		Count: trace.DegradeDemandOnly})
}

// controllerStep advances the state machine at each step's close.
func (rt *Runtime) controllerStep(st *metrics.StepStats) error {
	c := rt.ctl
	switch c.state {
	case CtlDemandOnly:
		return nil

	case CtlRecovered:
		rt.run.RecoveredSteps++
		c.cooldown--
		// Verdicts are ignored during cooldown, but the baseline keeps
		// learning what the new plan's steps look like.
		c.mon.flagged(st)
		if c.cooldown == 0 {
			rt.transition(st.Step, CtlHealthy, "cooldown elapsed")
		}
		return nil

	case CtlHealthy:
		rt.judgeHealthy(st)
		return nil

	case CtlSuspect:
		// One more flagged step confirms the divergence; a clean one
		// returns to healthy.
		bad, detail := c.mon.flagged(st)
		if !bad {
			c.mon.bad = 0
			rt.transition(st.Step, CtlHealthy, "step clean, divergence was transient")
			return nil
		}
		rt.startSampling(st, detail)
		return nil

	case CtlReprofiling:
		// Sampling steps are not judged: their fault overhead inflates
		// step time by design, and the round must complete.
		c.mon.flagged(st)
		c.sampleLeft--
		if c.sampleLeft > 0 {
			return nil
		}
		rt.transition(st.Step, CtlReplanning, fmt.Sprintf("round %d samples collected", c.round-1))
		c.replans++
		rt.run.Replans++
		rt.emit(trace.Event{At: rt.now, Kind: trace.KReplan, Tensor: trace.NoTensor,
			Name: "rebuilding plan from blended counts", Count: int64(c.round - 1)})
		if err := rt.policy.(Reprofiler).Replan(c.round - 1); err != nil {
			rt.fallbackDemandOnly(st, fmt.Sprintf("replan failed: %v", err))
			return nil
		}
		// Fresh baseline for the new plan: the best step of the old plan
		// must not mis-flag it.
		c.mon.reset()
		c.cooldown = cooldownSteps
		rt.transition(st.Step, CtlRecovered, "plan swapped")
		return nil

	case CtlReplanning:
		// Transient: the rebuild runs to completion inside the
		// CtlReprofiling arm above, so a step must never close in this
		// state. Reaching it means a transition edge was lost — fail
		// loudly rather than judge a step against a half-swapped plan.
		return fmt.Errorf("exec: controller closed step %d in transient state %v", st.Step, c.state)
	}
	return nil
}

// judgeHealthy accumulates divergence evidence in the healthy state and
// escalates to suspect (or straight to demand-only when the replan budget
// is spent) once the monitor's window fills.
func (rt *Runtime) judgeHealthy(st *metrics.StepStats) {
	c := rt.ctl
	bad, detail := c.mon.flagged(st)
	if !bad {
		c.mon.bad = 0
		return
	}
	c.mon.bad++
	if c.mon.bad < divWindow {
		return
	}
	// Divergence declared: with replans left it opens the recovery loop;
	// with none it closes the run down to demand paging.
	c.mon.bad = 0
	st.Diverged = true
	rt.emit(trace.Event{At: rt.now, Kind: trace.KPlanDiverged, Tensor: trace.NoTensor, Name: detail})
	if c.replans >= c.maxReplans {
		rt.fallbackDemandOnly(st, "replan budget exhausted: "+detail)
		return
	}
	rt.transition(st.Step, CtlSuspect, detail)
}

// startSampling leaves the suspect state for a re-profiling round, or
// falls back to demand-only mode when the policy cannot re-profile.
func (rt *Runtime) startSampling(st *metrics.StepStats, detail string) {
	c := rt.ctl
	rp, ok := rt.policy.(Reprofiler)
	if !ok || !rp.ReprofileStart(c.round) {
		rt.fallbackDemandOnly(st, "policy cannot re-profile: "+detail)
		return
	}
	c.round++
	c.sampleLeft = sampleSteps
	rt.transition(st.Step, CtlReprofiling, detail)
}

// ControllerState reports the controller's current state; CtlHealthy when
// the controller is not armed.
func (rt *Runtime) ControllerState() CtlState {
	if rt.ctl == nil {
		return CtlHealthy
	}
	return rt.ctl.state
}
