package memsys

import (
	"testing"

	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

func TestBWTraceConsume(t *testing.T) {
	tr := NewBWTrace(simtime.Millisecond)
	at := simtime.Time(simtime.Millisecond / 2)
	tr.Consume(trace.Event{At: at, Kind: trace.KAccess, Tier: trace.TierFast, Bytes: 100})
	tr.Consume(trace.Event{At: at, Kind: trace.KAccess, Tier: trace.TierSlow, Bytes: 30})
	tr.Consume(trace.Event{At: at, Kind: trace.KMigrateIn, Bytes: 7})
	tr.Consume(trace.Event{At: at, Kind: trace.KMigrateOut, Bytes: 5})
	// Non-traffic kinds are ignored.
	tr.Consume(trace.Event{At: at, Kind: trace.KStall, Dur: simtime.Millisecond})
	tr.Consume(trace.Event{At: at, Kind: trace.KAlloc, Bytes: 9999})

	fast, slow, migrated := tr.Totals()
	if fast != 100 || slow != 30 || migrated != 12 {
		t.Fatalf("Totals = %d/%d/%d, want 100/30/12", fast, slow, migrated)
	}
	if n := len(tr.Samples()); n != 1 {
		t.Fatalf("samples = %d, want 1", n)
	}
}

// TestConsumeMatchesDirectCalls pins the consumer to the legacy AddAccess/
// AddMigration semantics: the Fig. 9 series must not shift when fed
// through the unified event stream.
func TestConsumeMatchesDirectCalls(t *testing.T) {
	direct := NewBWTrace(simtime.Millisecond)
	viaBus := NewBWTrace(simtime.Millisecond)
	at := simtime.Time(3 * simtime.Millisecond)
	direct.AddAccess(at, Fast, 64)
	direct.AddMigration(at, 32)
	viaBus.Consume(trace.Event{At: at, Kind: trace.KAccess, Tier: trace.TierFast, Bytes: 64})
	viaBus.Consume(trace.Event{At: at, Kind: trace.KMigrateIn, Bytes: 32})
	a, b := direct.Samples(), viaBus.Samples()
	if len(a) != len(b) {
		t.Fatalf("bucket counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
