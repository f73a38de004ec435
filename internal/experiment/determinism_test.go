package experiment

import "testing"

// The acceptance bar for the parallel executor: a sweep run on the worker
// pool with the plan cache enabled renders byte-identical tables to the
// strictly sequential, cache-free reference path (-seq). The simulator is
// deterministic, so any divergence means either a cache-key collision or
// completion-order leakage into row assembly.

// goldenPair runs one experiment both ways and compares renderings.
func goldenPair(t *testing.T, id string, steps int) {
	t.Helper()
	seq := Options{Steps: steps, Workers: 1, NoCache: true}
	par := Options{Steps: steps, Workers: 4, Cache: NewCache()}
	want, err := Run(id, seq)
	if err != nil {
		t.Fatalf("sequential %s: %v", id, err)
	}
	got, err := Run(id, par)
	if err != nil {
		t.Fatalf("parallel %s: %v", id, err)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("%s: parallel+cache output differs from sequential reference\n--- sequential ---\n%s\n--- parallel ---\n%s", id, w, g)
	}
}

// TestFig7GoldenParallel covers the main CPU comparison (five policies per
// model, assembled per-row from a flat cell list).
func TestFig7GoldenParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	goldenPair(t, "fig7", 5)
}

// TestFig10GoldenParallel covers the capacity sweep whose per-model
// fast-only baseline is hoisted out of the inner loop — the hoist must be
// invisible in the output.
func TestFig10GoldenParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	goldenPair(t, "fig10", 5)
}

// TestQuickSweepGoldenParallel sweeps every registered experiment in quick
// mode, sharing one cache across all of them the way cmd/sentinel-bench
// does. This catches cross-experiment key collisions the per-figure goldens
// cannot.
func TestQuickSweepGoldenParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	shared := NewCache()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := Run(id, Options{Steps: 4, Quick: true, Workers: 1, NoCache: true})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			got, err := Run(id, Options{Steps: 4, Quick: true, Workers: 4, Cache: shared})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if g, w := got.String(), want.String(); g != w {
				t.Errorf("parallel+shared-cache output differs\n--- sequential ---\n%s\n--- parallel ---\n%s", w, g)
			}
		})
	}
}
