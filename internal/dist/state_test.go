package dist

import "testing"

func TestStateMachine(t *testing.T) {
	all := []State{StateIdle, StateLeased, StateRunning, StateCompleted,
		StateExpired, StateReassigned, StateQuarantined}

	legal := map[State]map[State]bool{
		StateIdle:       {StateLeased: true, StateQuarantined: true},
		StateLeased:     {StateRunning: true, StateCompleted: true, StateExpired: true},
		StateRunning:    {StateCompleted: true, StateExpired: true},
		StateExpired:    {StateReassigned: true, StateQuarantined: true},
		StateReassigned: {StateLeased: true, StateQuarantined: true},
	}
	for _, from := range all {
		for _, to := range all {
			want := legal[from][to]
			if got := from.CanAdvance(to); got != want {
				t.Errorf("CanAdvance(%v → %v) = %v, want %v", from, to, got, want)
			}
			s := from
			err := s.advance(to)
			if want && (err != nil || s != to) {
				t.Errorf("advance(%v → %v) failed: %v (state now %v)", from, to, err, s)
			}
			if !want && (err == nil || s != from) {
				t.Errorf("advance(%v → %v) did not refuse (err %v, state now %v)", from, to, err, s)
			}
		}
	}
}

func TestStateTerminalAndString(t *testing.T) {
	for s, want := range map[State]string{
		StateIdle: "idle", StateLeased: "leased", StateRunning: "running",
		StateCompleted: "completed", StateExpired: "expired",
		StateReassigned: "reassigned", StateQuarantined: "quarantined",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
		wantTerminal := s == StateCompleted || s == StateQuarantined
		if s.Terminal() != wantTerminal {
			t.Errorf("%v.Terminal() = %v, want %v", s, s.Terminal(), wantTerminal)
		}
	}
	if got := State(99).String(); got != "State(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// FuzzShardState drives arbitrary transition sequences through the lease
// state machine from an arbitrary start. Each step byte names a target
// state, one past each end of the machine included. advance must fail
// exactly when CanAdvance is false and leave the state unchanged when it
// fails; no transition may leave a terminal state; String must render
// every State value.
func FuzzShardState(f *testing.F) {
	f.Add(int64(StateIdle), []byte{1, 2, 3})          // idle → leased → running → completed
	f.Add(int64(StateIdle), []byte{1, 4, 5, 1, 4, 6}) // expire, reassign, re-lease, quarantine
	f.Add(int64(StateCompleted), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(-1), []byte{0, 255})
	f.Fuzz(func(t *testing.T, start int64, steps []byte) {
		s := State(start)
		_ = s.String()
		for _, b := range steps {
			to := State(int(b)%9 - 1)
			_ = to.String()
			from := s
			legal := from.CanAdvance(to)
			err := s.advance(to)
			switch {
			case legal && (err != nil || s != to):
				t.Fatalf("advance(%v → %v) refused a legal transition: %v (state now %v)", from, to, err, s)
			case !legal && err == nil:
				t.Fatalf("advance(%v → %v) took an illegal transition", from, to)
			case !legal && s != from:
				t.Fatalf("failed advance(%v → %v) moved the state to %v", from, to, s)
			case legal && from.Terminal():
				t.Fatalf("terminal state %v exits to %v", from, to)
			}
		}
	})
}
