package exec

import (
	"fmt"
	"strings"
	"testing"

	"sentinel/internal/metrics"
)

// TestCtlStateClosed pins the controller machine's shape: exactly six
// named states with distinct names, and from each of them one clean step
// either errors (the transient CtlReplanning, which must never span a
// step boundary) or leaves the controller in a named state. A seventh
// state with a String case fails it, and so does a step arm that moves
// the controller somewhere String cannot name.
func TestCtlStateClosed(t *testing.T) {
	var states []CtlState
	names := map[string]bool{}
	for s := CtlState(0); ; s++ {
		if s > 64 {
			t.Fatal("CtlState.String never reaches its state(n) default")
		}
		name := s.String()
		if name == fmt.Sprintf("state(%d)", int(s)) {
			break
		}
		if names[name] {
			t.Errorf("state %d reuses the name %q", int(s), name)
		}
		names[name] = true
		states = append(states, s)
	}
	if len(states) != 6 {
		t.Fatalf("CtlState has %d named states %v, want 6", len(states), states)
	}

	for _, s := range states {
		c := newController(onlineReplans)
		c.state = s
		// Mid-round and mid-cooldown, as the machine enters those states,
		// so one step neither replans nor leaves cooldown.
		c.sampleLeft, c.cooldown = sampleSteps, cooldownSteps
		rt := &Runtime{ctl: c}
		err := rt.controllerStep(&metrics.StepStats{Step: 7})
		if s == CtlReplanning {
			if err == nil || !strings.Contains(err.Error(), "transient state") {
				t.Errorf("step closed in %v: got error %v, want the transient-state error", s, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("clean step from %v: %v", s, err)
		}
		if to := c.state; !names[to.String()] {
			t.Errorf("clean step from %v left the controller in unnamed state %v", s, to)
		}
	}
}

// TestControllerStepRejectsTransientReplanning: CtlReplanning is a
// transient state that must never span a step boundary, so
// controllerStep rejects a step closed in it with an error naming the
// state and the step, rather than judging that step against a
// half-swapped plan.
func TestControllerStepRejectsTransientReplanning(t *testing.T) {
	rt := &Runtime{ctl: &onlineController{state: CtlReplanning}}
	err := rt.controllerStep(&metrics.StepStats{Step: 7})
	if err == nil {
		t.Fatal("controllerStep accepted a step closed in the transient replanning state")
	}
	for _, want := range []string{"replanning", "step 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
