package experiment

import (
	"strconv"
	"testing"

	"sentinel/internal/chaos"
	"sentinel/internal/metrics"
)

// TestServedRepliesFollowTheCell checks that a served reply is kept on
// the cell's cache entry, not per request: requests that resolve to one
// cell share one reply, rendered once. A bare chaos seed injects
// nothing, a shrink of zero removes nothing, and a fast_pct that sizes
// the fast tier to the same bytes as another fast_pct or a fast_bytes
// names the same machine. A seed that changes the run gets its own.
func TestServedRepliesFollowTheCell(t *testing.T) {
	o := Options{Cache: NewCache(), Workers: 1}
	renders := 0
	render := func(*metrics.RunStats) ([]byte, error) {
		renders++
		return []byte(strconv.Itoa(renders)), nil
	}
	serve := func(r CellRequest) string {
		t.Helper()
		body, _, err := ServeCell(o, r, render)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	base := CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastPct: 20, Steps: 2}
	if got := serve(base); got != "1" {
		t.Fatalf("first request got reply %q, want 1", got)
	}
	peak, err := o.peak(base.Model, base.Batch)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(base.FastPct / 100 * float64(peak))
	// Another percentage that truncates to the same fast-tier bytes.
	pct := (float64(size) + 0.5) / float64(peak) * 100
	if pct == base.FastPct || int64(pct/100*float64(peak)) != size {
		t.Fatalf("no distinct fast_pct aliases %g%% of %d bytes", base.FastPct, peak)
	}
	entries := o.Cache.Len()

	seedOnly, noShrink, otherPct, bytes := base, base, base, base
	seedOnly.Chaos = &chaos.Config{Seed: 7}
	noShrink.Chaos = &chaos.Config{Seed: 8, ShrinkAtStep: 1}
	otherPct.FastPct = pct
	bytes.FastPct, bytes.FastBytes = 0, size
	for name, r := range map[string]CellRequest{
		"seed only": seedOnly, "zero shrink": noShrink, "aliased fast_pct": otherPct, "fast_bytes": bytes,
	} {
		if got := serve(r); got != "1" {
			t.Errorf("%s: got reply %q, want the first request's", name, got)
		}
	}
	if renders != 1 || o.Cache.Len() != entries {
		t.Errorf("requests for one cell rendered %d replies and added %d entries, want 1 and 0",
			renders, o.Cache.Len()-entries)
	}

	perturbed := base
	perturbed.Chaos = &chaos.Config{Seed: 7, MigrateFail: 0.2}
	if got := serve(perturbed); got != "2" {
		t.Errorf("a perturbing seed got reply %q, want a reply of its own", got)
	}
}

// TestServedRepliesCountAsRunCell checks that serving a stored reply
// moves the cache counters exactly as running the request through
// RunCell or RunPlan again would: one hit for the entry, plus one for
// the peak-memory lookup a fast_pct request sizes its fast tier with.
func TestServedRepliesCountAsRunCell(t *testing.T) {
	cell := CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastPct: 20, Steps: 2}
	plan := PlanRequest{Model: "resnet32", Batch: 32, Platform: "cxl"}
	render := func(v any) ([]byte, error) { return []byte("reply"), nil }
	for _, tc := range []struct {
		name       string
		run, serve func(Options) error
	}{
		{"cell",
			func(o Options) error { _, err := RunCell(o, cell); return err },
			func(o Options) error {
				_, _, err := ServeCell(o, cell, func(r *metrics.RunStats) ([]byte, error) { return render(r) })
				return err
			}},
		{"plan",
			func(o Options) error { _, err := RunPlan(o, plan); return err },
			func(o Options) error {
				_, err := ServePlan(o, plan, func(s *PlanSummary) ([]byte, error) { return render(s) })
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			twice := func(f func(Options) error) metrics.CacheStats {
				o := Options{Cache: NewCache(), Workers: 1}
				for i := 0; i < 2; i++ {
					if err := f(o); err != nil {
						t.Fatal(err)
					}
				}
				return o.Cache.Stats()
			}
			if run, served := twice(tc.run), twice(tc.serve); run != served {
				t.Errorf("served twice counted %+v, run twice %+v", served, run)
			}
		})
	}
}
