package serve

import (
	"context"
	"errors"
)

// Admission control bounds what the daemon accepts: at most MaxInFlight
// requests execute at once and at most QueueDepth more wait for an
// execution slot. Everything past those bounds is rejected immediately
// with a typed error the HTTP layer maps to 429 + Retry-After — the
// daemon sheds load instead of queueing unboundedly, which is what keeps
// memory bounded under a request flood.
//
// The design is two nested token pools: `admitted` (capacity
// MaxInFlight+QueueDepth) is acquired non-blockingly at the door, and
// `running` (capacity MaxInFlight) is acquired blockingly once inside —
// the wait is bounded because only admitted requests compete for it.

// ErrSaturated reports a full admission queue: the daemon is already
// executing MaxInFlight requests with QueueDepth more waiting. The HTTP
// layer maps it to 429.
var ErrSaturated = errors.New("server saturated")

// admission is the daemon's bounded admission controller. The zero
// value is unusable; use newAdmission.
type admission struct {
	admitted chan struct{} // tokens for every admitted (waiting or running) request
	running  chan struct{} // tokens for executing requests
}

// newAdmission sizes the controller; maxInFlight must be positive,
// queueDepth non-negative.
func newAdmission(maxInFlight, queueDepth int) *admission {
	return &admission{
		admitted: make(chan struct{}, maxInFlight+queueDepth),
		running:  make(chan struct{}, maxInFlight),
	}
}

// Admit tries to admit one request. It never blocks: a full queue
// returns ErrSaturated. On success the caller must call the returned
// release exactly once, after Start's slot (if acquired) has been
// released.
func (a *admission) Admit() (release func(), err error) {
	select {
	case a.admitted <- struct{}{}:
		return func() { <-a.admitted }, nil
	default:
		return nil, ErrSaturated
	}
}

// Start blocks an admitted request until an execution slot frees up, or
// until ctx is cancelled (the client hung up while queued). On success
// the caller must call the returned stop exactly once.
func (a *admission) Start(ctx context.Context) (stop func(), err error) {
	select {
	case a.running <- struct{}{}:
		return func() { <-a.running }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Queued reports admitted-but-not-yet-finished requests (waiting plus
// running) and the number currently executing.
func (a *admission) Queued() (admitted, running int) {
	return len(a.admitted), len(a.running)
}
