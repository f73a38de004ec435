package core

import (
	"fmt"
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
)

// TestGroupKeysMatchSprintf checks that the group keys built with strconv
// are the strings fmt.Sprintf gives: the plan's L<alloc>-<free>/h<bucket>
// key for every profiled long-lived tensor, on resnet32 and bert-base.
func TestGroupKeysMatchSprintf(t *testing.T) {
	for _, c := range []struct {
		model string
		batch int
	}{{"resnet32", 128}, {"bert-base", 16}} {
		t.Run(c.model, func(t *testing.T) {
			g, err := model.Build(c.model, c.batch)
			if err != nil {
				t.Fatal(err)
			}
			spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
			p, err := profile.Collect(g, spec)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := BuildPlan(p, spec, LayerDecompFromProfile(p), 0)
			if err != nil {
				t.Fatal(err)
			}
			long := 0
			for i := range p.Tensors {
				ts := &p.Tensors[i]
				want := ShortPoolGroup
				if !pl.Short[i] {
					want = fmt.Sprintf("L%d-%d/h%d", ts.AllocLayer, ts.FreeLayer, hotBucket(ts.Accesses))
					long++
				}
				if got := pl.GroupKey(p, g.Tensors[i]); got != want {
					t.Fatalf("tensor %d (%s): key %q, want %q", i, ts.Name, got, want)
				}
			}
			if long == 0 {
				t.Fatal("no long-lived tensor: the L key went unchecked")
			}
		})
	}
}
