package experiment

import (
	"testing"

	"sentinel/internal/trace"
)

// TestSharedBusAcrossSweep runs one experiment on the worker pool with a
// shared trace bus attached: cells executing concurrently must all land
// on the bus (run under -race this checks the concurrent-emit path), each
// event stamped with its cell's run label, and the emitted table must be
// unaffected by tracing.
func TestSharedBusAcrossSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	id := "fig7"
	plain, err := Run(id, Options{Steps: 2, Quick: true, Workers: 4, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus(0)
	traced, err := Run(id, Options{Steps: 2, Quick: true, Workers: 4, Cache: NewCache(), Trace: bus})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := traced.String(), plain.String(); g != w {
		t.Errorf("tracing changed the experiment output\n--- plain ---\n%s\n--- traced ---\n%s", w, g)
	}
	if bus.Len() == 0 {
		t.Fatal("no events captured from the sweep")
	}
	runs := map[string]bool{}
	for _, e := range bus.Events() {
		if e.Run == "" {
			t.Fatalf("sweep event missing run label: %v", e)
		}
		runs[e.Run] = true
	}
	if len(runs) < 2 {
		t.Fatalf("expected events from multiple cells, got runs %v", runs)
	}
}

// TestFig9SeriesConservation: the Fig. 9 series is the bus's access and
// migration events summed into buckets, and every demand and migrated byte
// of a step crosses the bus, so per cell the series totals equal the
// steady step's counters exactly. With Options.Trace set, the cells' events
// are forwarded there too.
func TestFig9SeriesConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	// Three steps is the quick golden's setting, five the CLI default.
	for _, steps := range []int{3, 5} {
		fwd := trace.NewBus(1)
		forwarded := map[string]bool{}
		fwd.Subscribe(func(e trace.Event) { forwarded[e.Run] = true })
		o := Options{Steps: steps, Quick: true, Workers: 2, Trace: fwd}
		cells, err := fig9Cells(o.normalized())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			var got bwBucket
			for _, b := range c.buckets {
				got.fast += b.fast
				got.slow += b.slow
				got.migrated += b.migrated
			}
			st := c.run.SteadyStep()
			want := bwBucket{fast: st.FastBytes, slow: st.SlowBytes, migrated: st.MigratedTotal()}
			if got != want || want.migrated == 0 {
				t.Errorf("%d steps, %s: series totals %+v, steady step %+v", steps, c.policy, got, want)
			}
		}
		if len(forwarded) != len(cells) {
			t.Errorf("%d steps: forwarded events from runs %v, want one per cell (%d)", steps, forwarded, len(cells))
		}
	}
}
