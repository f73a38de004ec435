package kernel

import (
	"testing"

	"sentinel/internal/memsys"
)

// TestTouchFaultPathDoesNotAllocate pins the profiling fault path as
// heap-free: Touch runs once per tensor access in the engine's op loop,
// and during the profiling step every access to a poisoned page takes a
// fault. The run-table walk and fault accounting must not allocate.
func TestTouchFaultPathDoesNotAllocate(t *testing.T) {
	k, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Map(1, 64, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	k.SetProfiling(true)
	k.Poison(1, 64)
	addr := int64(1) << PageShift
	size := int64(16) * PageSize
	if n := testing.AllocsPerRun(1000, func() {
		k.Touch(addr, size, 2, true, 0)
	}); n != 0 {
		t.Fatalf("Touch fault path allocates %.1f objects per call, want 0", n)
	}
}

// TestTouchUnprofiledDoesNotAllocate pins the steady-state (non-profiling)
// Touch as heap-free as well — it is the common case across every
// simulated training step.
func TestTouchUnprofiledDoesNotAllocate(t *testing.T) {
	k, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Map(1, 64, memsys.Fast); err != nil {
		t.Fatal(err)
	}
	addr := int64(1) << PageShift
	size := int64(16) * PageSize
	if n := testing.AllocsPerRun(1000, func() {
		k.Touch(addr, size, 1, false, 0)
	}); n != 0 {
		t.Fatalf("Touch allocates %.1f objects per call, want 0", n)
	}
}
