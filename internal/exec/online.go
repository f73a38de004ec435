package exec

import (
	"flag"
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
// monitor's window plus MinDwell suspect steps before sampling starts, a
// successful swap is followed by Cooldown steps during which verdicts are
// ignored (the baseline still re-learns), and at most MaxReplans rebuilds
// are attempted per run — after that, or when replanning itself fails,
// the controller falls back to demand-only mode.

// CtlState is one state of the online controller.
//
// sentinel-vet's statemach analyzer enforces the machine shape: every
// default-less switch over CtlState handles all six states, and only
// transition may write a CtlState constant into durable storage.
//
//lint:statemach transitions=transition
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

// OnlineConfig tunes the adaptive controller. The zero value is disabled;
// DefaultOnline returns the enabled defaults the -online flag arms.
type OnlineConfig struct {
	// Enabled arms the recovery loop. Off, WithOnline attaches nothing;
	// a fault injector alone still arms the controller, with default
	// thresholds and MaxReplans 0.
	Enabled bool
	// MinDwell is how many additional flagged steps the controller waits
	// in the suspect state before starting to sample; a clean step in
	// between returns it to healthy. Higher values tolerate longer
	// transients at the cost of later recovery.
	MinDwell int
	// SampleSteps is how many steps a re-profiling round observes.
	SampleSteps int
	// SampleEvery selects every n-th long-lived tensor (by profiled
	// access rank) for re-poisoning; the offset rotates with the round
	// index. 1 samples everything.
	SampleEvery int
	// Cooldown is how many recovered steps the monitor's verdicts are
	// ignored after a plan swap (its baseline still re-learns), so the
	// swap's own migration delta never re-triggers the controller.
	Cooldown int
	// MaxReplans caps plan rebuilds per run; exhausted, the controller
	// falls back to demand-only mode.
	MaxReplans int
	// Decay is the weight of the old profile in the blended access
	// counts: blended = Decay*old + (1-Decay)*observed, in [0,1).
	Decay float64
	// Div tunes the divergence judgement; the zero value means
	// DefaultDivergence.
	Div DivergenceConfig
}

// DefaultOnline returns the enabled controller defaults: one extra dwell
// step, two sampling steps over every second long-lived tensor, a
// two-step cooldown, at most two replans, and a 25% old-profile weight.
func DefaultOnline() OnlineConfig {
	return OnlineConfig{
		Enabled:     true,
		MinDwell:    1,
		SampleSteps: 2,
		SampleEvery: 2,
		Cooldown:    2,
		MaxReplans:  2,
		Decay:       0.25,
		Div:         DefaultDivergence(),
	}
}

// Validate reports knob values outside their meaningful ranges.
func (c OnlineConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.MinDwell < 0 {
		return fmt.Errorf("online: min-dwell %d is negative", c.MinDwell)
	}
	if c.SampleSteps < 1 {
		return fmt.Errorf("online: sample-steps %d < 1", c.SampleSteps)
	}
	if c.SampleEvery < 1 {
		return fmt.Errorf("online: sample-every %d < 1", c.SampleEvery)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("online: cooldown %d is negative", c.Cooldown)
	}
	if c.MaxReplans < 0 {
		return fmt.Errorf("online: max-replans %d is negative", c.MaxReplans)
	}
	if c.Decay < 0 || c.Decay >= 1 {
		return fmt.Errorf("online: decay %g outside [0,1)", c.Decay)
	}
	return nil
}

// Key canonicalizes the config for cache keys; empty when disabled, so
// offline cells keep their pre-online keys.
func (c OnlineConfig) Key() string {
	if !c.Enabled {
		return ""
	}
	return fmt.Sprintf("online|dw%d|ss%d|se%d|cd%d|mr%d|dec%g",
		c.MinDwell, c.SampleSteps, c.SampleEvery, c.Cooldown, c.MaxReplans, c.Decay)
}

// String summarizes the active knobs for logs.
func (c OnlineConfig) String() string {
	if !c.Enabled {
		return "online off"
	}
	return fmt.Sprintf("dwell %d, sample %d steps every %d, cooldown %d, max %d replans, decay %g",
		c.MinDwell, c.SampleSteps, c.SampleEvery, c.Cooldown, c.MaxReplans, c.Decay)
}

// RegisterOnlineFlags declares the -online flag family on the default
// flag set and returns the bound config. Call before flag.Parse; the
// returned config is disabled unless the user sets -online.
func RegisterOnlineFlags() *OnlineConfig {
	c := &OnlineConfig{}
	*c = DefaultOnline()
	c.Enabled = false
	flag.BoolVar(&c.Enabled, "online", false, "adaptive controller: re-profile and replan when the plan diverges")
	flag.IntVar(&c.MinDwell, "online-dwell", c.MinDwell, "extra flagged steps in the suspect state before sampling starts")
	flag.IntVar(&c.SampleSteps, "online-sample-steps", c.SampleSteps, "steps one re-profiling round observes")
	flag.IntVar(&c.SampleEvery, "online-sample-every", c.SampleEvery, "sample every n-th long-lived tensor (1 = all)")
	flag.IntVar(&c.Cooldown, "online-cooldown", c.Cooldown, "recovered steps before divergence verdicts re-arm after a plan swap")
	flag.IntVar(&c.MaxReplans, "online-max-replans", c.MaxReplans, "plan rebuilds allowed per run before demand-only fallback")
	flag.Float64Var(&c.Decay, "online-decay", c.Decay, "old-profile weight in blended access counts [0,1)")
	return c
}

// WithOnline arms the adaptive controller. A disabled config attaches
// nothing, keeping the zero-knob run byte-identical to one without the
// online subsystem.
func WithOnline(cfg OnlineConfig) Option {
	return func(rt *Runtime) {
		if cfg.Enabled {
			rt.ctl = newController(cfg)
		}
	}
}

// newController builds the per-run state machine that WithOnline and a
// chaos-only NewRuntime both arm; the zero Div means DefaultDivergence.
func newController(cfg OnlineConfig) *onlineController {
	if cfg.Div == (DivergenceConfig{}) {
		cfg.Div = DefaultDivergence()
	}
	return &onlineController{cfg: cfg, mon: divMonitor{cfg: cfg.Div, bestDemand: -1}}
}

// Online returns the controller configuration (zero unless WithOnline
// enabled it). Policies consult it for the knobs the replan path needs
// (SampleEvery, Decay).
func (rt *Runtime) Online() OnlineConfig {
	if rt.ctl == nil || !rt.ctl.cfg.Enabled {
		return OnlineConfig{}
	}
	return rt.ctl.cfg
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
	cfg   OnlineConfig
	state CtlState
	// mon judges each step; the controller owns the windowing.
	mon divMonitor
	// dwell counts consecutive flagged steps while suspect.
	dwell int
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
// mode (prefetch suppressed run-wide), or the typed error under
// WithFailHard.
func (rt *Runtime) fallbackDemandOnly(st *metrics.StepStats, reason string, err error) error {
	st.Diverged = true
	rt.run.Diverged = true
	rt.transition(st.Step, CtlDemandOnly, reason)
	if rt.failHard {
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: %s", ErrPlanDiverged, reason)
	}
	rt.demandOnly = true
	rt.emit(trace.Event{At: rt.now, Kind: trace.KDegrade, Tensor: trace.NoTensor,
		Count: trace.DegradeDemandOnly})
	return nil
}

// controllerStep advances the state machine at each step's close.
func (rt *Runtime) controllerStep(st *metrics.StepStats) error {
	c := rt.ctl
	switch c.state {
	case CtlDemandOnly:
		return nil

	case CtlRecovered:
		rt.run.RecoveredSteps++
		if c.cooldown > 0 {
			c.cooldown--
			// Verdicts are ignored during cooldown, but the baseline
			// keeps learning what the new plan's steps look like.
			c.mon.flagged(st)
			if c.cooldown == 0 {
				rt.transition(st.Step, CtlHealthy, "cooldown elapsed")
			}
			return nil
		}
		// Cooldown == 0 configured: behave as healthy immediately.
		return rt.judgeHealthy(st)

	case CtlHealthy:
		return rt.judgeHealthy(st)

	case CtlSuspect:
		bad, detail := c.mon.flagged(st)
		if !bad {
			c.mon.bad = 0
			c.dwell = 0
			rt.transition(st.Step, CtlHealthy, "step clean, divergence was transient")
			return nil
		}
		c.dwell++
		if c.dwell < c.cfg.MinDwell {
			return nil
		}
		return rt.startSampling(st, detail)

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
			reason := fmt.Sprintf("replan failed: %v", err)
			return rt.fallbackDemandOnly(st, reason,
				fmt.Errorf("%w: %v", ErrReplanFailed, err))
		}
		// Fresh baseline for the new plan: the best step of the old plan
		// must not mis-flag it.
		c.mon.reset()
		c.dwell = 0
		c.cooldown = c.cfg.Cooldown
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
func (rt *Runtime) judgeHealthy(st *metrics.StepStats) error {
	c := rt.ctl
	bad, detail := c.mon.flagged(st)
	if !bad {
		c.mon.bad = 0
		return nil
	}
	c.mon.bad++
	if c.mon.bad < c.cfg.Div.Window {
		return nil
	}
	// Divergence declared: with replans left it opens the recovery loop;
	// with none it closes the run down to demand paging.
	c.mon.bad = 0
	st.Diverged = true
	rt.emit(trace.Event{At: rt.now, Kind: trace.KPlanDiverged, Tensor: trace.NoTensor, Name: detail})
	if c.replans >= c.cfg.MaxReplans {
		return rt.fallbackDemandOnly(st, "replan budget exhausted: "+detail, nil)
	}
	rt.transition(st.Step, CtlSuspect, detail)
	c.dwell = 0
	if c.cfg.MinDwell == 0 {
		// No extra dwell requested: begin sampling immediately.
		return rt.startSampling(st, detail)
	}
	return nil
}

// startSampling leaves the suspect state for a re-profiling round, or
// falls back to demand-only mode when the policy cannot re-profile.
func (rt *Runtime) startSampling(st *metrics.StepStats, detail string) error {
	c := rt.ctl
	rp, ok := rt.policy.(Reprofiler)
	if !ok || !rp.ReprofileStart(c.round) {
		return rt.fallbackDemandOnly(st, "policy cannot re-profile: "+detail, nil)
	}
	c.round++
	c.sampleLeft = c.cfg.SampleSteps
	rt.transition(st.Step, CtlReprofiling, detail)
	return nil
}

// ControllerState reports the controller's current state; CtlHealthy when
// the controller is not armed.
func (rt *Runtime) ControllerState() CtlState {
	if rt.ctl == nil {
		return CtlHealthy
	}
	return rt.ctl.state
}
