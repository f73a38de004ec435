package kernel

import (
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

func benchKernel(b *testing.B) *Kernel {
	b.Helper()
	spec := memsys.OptaneHM()
	spec.Fast.Size = 256 << 20
	spec.Slow.Size = 2 << 30
	k, err := New(spec)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// mapTensors maps n page-aligned pseudo-tensors of pages pages each on the
// given tier and returns their start addresses.
func mapTensors(b *testing.B, k *Kernel, n int, pages int64, tier memsys.Tier) []int64 {
	b.Helper()
	addrs := make([]int64, 0, n)
	next := PageID(1)
	for i := 0; i < n; i++ {
		if _, err := k.Map(next, next+PageID(pages)-1, tier); err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, int64(next)<<PageShift)
		next += PageID(pages)
	}
	return addrs
}

// BenchmarkTouchProfiled measures the profiling fault path: every access to
// a poisoned page takes a protection fault, is counted, and is emitted as a
// fault event — the inner loop of Sentinel's profiling step.
func BenchmarkTouchProfiled(b *testing.B) {
	k := benchKernel(b)
	addrs := mapTensors(b, k, 64, 8, memsys.Slow)
	size := 8 * PageSize
	for _, a := range addrs {
		first, last := PageSpan(a, size)
		k.Poison(first, last)
	}
	k.SetProfiling(true)
	k.SetTrace(trace.NewSink(trace.NewBus(1024), "bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		k.Touch(a, size, 2, i%2 == 0, simtime.Time(i))
	}
}

// BenchmarkTouchUnprofiled measures the steady-state access path: no
// profiling, only the touch hook dispatch.
func BenchmarkTouchUnprofiled(b *testing.B) {
	k := benchKernel(b)
	addrs := mapTensors(b, k, 64, 8, memsys.Slow)
	size := 8 * PageSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		k.Touch(a, size, 2, false, simtime.Time(i))
	}
}

// BenchmarkMigrate measures the migrate path: each iteration moves one
// tensor's pages to the other tier and back, exercising range lookup,
// channel submission, and residency accounting.
func BenchmarkMigrate(b *testing.B) {
	k := benchKernel(b)
	addrs := mapTensors(b, k, 64, 8, memsys.Slow)
	size := 8 * PageSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		at := simtime.Time(i) * simtime.Time(simtime.Millisecond)
		k.Migrate(a, size, memsys.Fast, at)
		k.Migrate(a, size, memsys.Slow, at)
	}
}

// BenchmarkTierBytes measures the residency query the engine issues per
// tensor access to split traffic across tiers (exec.fastFraction).
func BenchmarkTierBytes(b *testing.B) {
	k := benchKernel(b)
	addrs := mapTensors(b, k, 64, 8, memsys.Slow)
	size := 8 * PageSize
	// Mix tiers so queries straddle runs of both kinds.
	for i, a := range addrs {
		if i%2 == 0 {
			k.Migrate(a, size/2, memsys.Fast, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		k.TierBytes(a, size, simtime.Time(i))
	}
}
