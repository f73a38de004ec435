// Package locks exercises the locksafe analyzer's return-path rule. It
// has no serve path element, so the blocking rule is off here (see
// the serve fixture package for it). Copying a mutex by value is left to
// go vet's copylocks check.
package locks

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// leaky releases only on the fall-through path: the early return leaves
// the lock held.
func leaky(g *guarded) int {
	g.mu.Lock() // want `g.mu.Lock\(\) is not released on every return path`
	if g.n > 0 {
		return g.n
	}
	g.mu.Unlock()
	return 0
}

// Negative: defer covers every return path at once.
func deferred(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n > 0 {
		return g.n
	}
	return 0
}

// Negative (near miss): both branches balance their own Unlock, so no
// path leaks even without defer.
func balanced(g *guarded, early bool) int {
	g.mu.Lock()
	if early {
		g.mu.Unlock()
		return 1
	}
	g.mu.Unlock()
	return 0
}
