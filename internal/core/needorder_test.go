package core_test

import (
	"fmt"
	"slices"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
	"sentinel/internal/tensor"
)

// TestNeedOrder checks the prefetch order every plan promises: interval k
// lists each long-lived tensor accessed in k exactly once, ordered by the
// layer of its first access in k, ties broken by rank in
// profile.LongLived (access count descending). It covers every uniform
// MIL from 1 to the layer count plus the variable-length plan.
func TestNeedOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{{"resnet32", 128}, {"bert-base", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := model.Build(tc.name, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
			p, err := profile.Collect(g, spec)
			if err != nil {
				t.Fatal(err)
			}
			decomp := core.LayerDecompFromProfile(p)
			check := func(label string, pl *core.Plan) {
				t.Helper()
				want := wantNeeds(p, pl)
				if len(pl.Needs) != len(want) {
					t.Fatalf("%s: %d need lists for %d intervals", label, len(pl.Needs), len(want))
				}
				for k := range want {
					if !slices.Equal(pl.Needs[k], want[k]) {
						t.Fatalf("%s interval %d:\n got %v\nwant %v", label, k, pl.Needs[k], want[k])
					}
				}
			}
			for mil := 1; mil <= p.NumLayers; mil++ {
				pl, err := core.BuildPlan(p, spec, decomp, mil)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("MIL=%d", mil), pl)
			}
			pl, err := core.BuildPlanVariable(p, spec, decomp)
			if err != nil {
				t.Fatal(err)
			}
			check("variable", pl)
		})
	}
}

// wantNeeds derives each interval's need list independently of the
// planner: collect (tensor, first layer in interval) pairs, then sort by
// first layer and LongLived rank.
func wantNeeds(p *profile.Profile, pl *core.Plan) [][]tensor.ID {
	type need struct {
		id          tensor.ID
		first, rank int
	}
	per := make([][]need, pl.NumIntervals)
	for rank, id := range p.LongLived() {
		at := map[int]int{} // interval -> index of id's entry in per[k]
		for _, a := range p.ByID(id).PerLayer {
			k := pl.IntervalOf(a.Layer)
			if i, ok := at[k]; ok {
				per[k][i].first = min(per[k][i].first, a.Layer)
				continue
			}
			at[k] = len(per[k])
			per[k] = append(per[k], need{id, a.Layer, rank})
		}
	}
	want := make([][]tensor.ID, pl.NumIntervals)
	for k, ns := range per {
		slices.SortFunc(ns, func(a, b need) int {
			if a.first != b.first {
				return a.first - b.first
			}
			return a.rank - b.rank
		})
		for _, n := range ns {
			want[k] = append(want[k], n.id)
		}
	}
	return want
}
