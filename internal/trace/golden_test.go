package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sentinel/internal/simtime"
)

// everyKindEvents is one synthetic event per Kinds() entry, in schema
// order a millisecond apart, followed by the renderings no single row
// covers: an unattributed stall and a slow-tier access on a second run,
// and a kind with no schema entry.
func everyKindEvents() []Event {
	ms := func(n int) simtime.Time { return simtime.Time(int64(n) * int64(simtime.Millisecond)) }
	var evs []Event
	for i, k := range Kinds() {
		evs = append(evs, Event{
			At: ms(i), Dur: 500 * simtime.Microsecond, Kind: k,
			Step: 1, Layer: 2, Tensor: 5, Name: "conv1.out",
			Bytes: int64(i+1) * 4096, Count: 3, Tier: TierFast,
		})
	}
	n := len(evs)
	return append(evs,
		Event{At: ms(n), Dur: 2 * simtime.Millisecond, Kind: KStall, Step: 1, Layer: 3, Tensor: NoTensor, Run: "b"},
		Event{At: ms(n + 1), Kind: KAccess, Step: 1, Layer: 3, Tensor: 6, Name: "fc.w", Bytes: 1 << 20, Tier: TierSlow, Run: "b"},
		Event{At: ms(n + 2), Kind: Kind("x"), Step: 1, Layer: 3, Tensor: 7, Name: "mystery", Bytes: 512, Run: "b"},
	)
}

// TestExportersEveryKind pins, byte for byte, what every exporter writes
// for every event kind. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/trace -run TestExportersEveryKind
//
// and review the diff like any golden change.
func TestExportersEveryKind(t *testing.T) {
	evs := everyKindEvents()
	var buf bytes.Buffer
	for _, ex := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{FormatText, func(b *bytes.Buffer) error { return WriteText(b, evs) }},
		{FormatChrome, func(b *bytes.Buffer) error { return WriteChrome(b, evs) }},
		{FormatStalls, func(b *bytes.Buffer) error { return WriteStallSummary(b, evs) }},
	} {
		buf.WriteString("== " + ex.name + " ==\n")
		if err := ex.write(&buf); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
	}
	golden := filepath.Join("testdata", "every_kind.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output diverged from golden %s (%d vs %d bytes); regenerate with UPDATE_GOLDEN=1 and review",
			golden, buf.Len(), len(want))
	}
}
