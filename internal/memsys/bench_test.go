package memsys

import (
	"testing"

	"sentinel/internal/simtime"
)

// BenchmarkChannelSubmit measures migration-channel queuing — the bandwidth
// math charged per migration batch.
func BenchmarkChannelSubmit(b *testing.B) {
	c := NewChannel(8e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(simtime.Time(i), 64<<10)
	}
}

// BenchmarkChannelSubmitUrgent measures the derated demand-fault path.
func BenchmarkChannelSubmitUrgent(b *testing.B) {
	c := NewChannel(8e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitUrgent(simtime.Time(i), 4<<10)
	}
}
