// Package sim is the determinism fixture: simulation code must not
// read wall-clock time or draw from the global math/rand source. This
// file is the self-test stand-in for the acceptance scenario of a
// stray time.Now() appearing in internal/exec.
package sim

import (
	"math/rand"
	"time"
)

// step is the positive fixture: every wall-clock read and a global
// rand draw.
func step() time.Duration {
	start := time.Now()                // want `wall-clock time\.Now in simulation code`
	_ = rand.Intn(10)                  // want `global math/rand\.Intn draws from the shared unseeded source`
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand\.Shuffle`
	_ = time.Until(start)              // want `wall-clock time\.Until in simulation code`
	return time.Since(start)           // want `wall-clock time\.Since in simulation code`
}

// seeded is the negative fixture: a seeded *rand.Rand is the sanctioned
// pattern, and its methods are not global draws.
func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// timers is negative: constructing durations and timers is not reading
// the clock.
func timers() time.Duration {
	return 5 * time.Millisecond
}

// progress is negative: an allow annotation with a reason suppresses
// the finding, exactly as the metrics progress display does.
func progress() time.Time {
	//lint:allow determinism: host-side progress display, never feeds simulated quantities
	return time.Now()
}
