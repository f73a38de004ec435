package memsys

import (
	"encoding/json"
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

// TestBWTraceJSONRoundTrip pins the JSON codec: a BWTrace survives
// Marshal/Unmarshal with its unexported bucket width and samples intact,
// so a decoded Fig. 9 cell carries an identical bandwidth series.
func TestBWTraceJSONRoundTrip(t *testing.T) {
	tr := NewBWTrace(5 * simtime.Millisecond)
	tr.AddAccess(simtime.Time(simtime.Millisecond), Fast, 4096)
	tr.AddAccess(simtime.Time(7*simtime.Millisecond), Slow, 512)
	tr.AddMigration(simtime.Time(11*simtime.Millisecond), 1<<20)

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got BWTrace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	gf, gs, gm := got.Totals()
	wf, ws, wm := tr.Totals()
	if gf != wf || gs != ws || gm != wm {
		t.Fatalf("totals diverged: got %d/%d/%d want %d/%d/%d", gf, gs, gm, wf, ws, wm)
	}
	a, b := tr.Samples(), got.Samples()
	if len(a) != len(b) {
		t.Fatalf("bucket counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The restored trace keeps accumulating on the same bucket grid.
	got.AddAccess(simtime.Time(2*simtime.Millisecond), Fast, 100)
	if f, _, _ := got.Totals(); f != wf+100 {
		t.Fatalf("restored trace does not accumulate: fast=%d want %d", f, wf+100)
	}
}

// TestBWTraceJSONZeroWidth: a hand-edited or damaged payload with a
// non-positive width must not divide by zero; the default width applies.
func TestBWTraceJSONZeroWidth(t *testing.T) {
	var got BWTrace
	if err := json.Unmarshal([]byte(`{"width":0}`), &got); err != nil {
		t.Fatal(err)
	}
	got.AddAccess(simtime.Time(simtime.Millisecond), Fast, 64) // must not panic
	if f, _, _ := got.Totals(); f != 64 {
		t.Fatalf("fast total %d, want 64", f)
	}
}
