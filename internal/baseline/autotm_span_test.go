package baseline

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// termRef is one placement-ILP coefficient in one row, in float64: the
// form the problem had before it was written as spans.
type termRef struct {
	row  int
	coef float64
}

// termProblem is AutoTM's placement ILP as built one term per layer, in
// float64, before the solver took spans. It is the oracle
// placementProblem must expand to.
func termProblem(g *graph.Graph, spec memsys.Spec) (benefit, bound []float64, cols [][]termRef, gaps []gapSpan) {
	n := len(g.Tensors)
	deltaRead := 1/spec.Slow.ReadBW - 1/spec.Fast.ReadBW
	deltaWrite := 1/spec.Slow.WriteBW - 1/spec.Fast.WriteBW
	moveCost := 2.0 / spec.MigrationBW
	benefit = make([]float64, 2*n)
	bound = make([]float64, g.NumLayers, g.NumLayers+n)
	cols = make([][]termRef, 2*n)
	for l := range bound {
		bound[l] = float64(spec.Fast.Size)
	}
	gaps = make([]gapSpan, n)
	for id := 0; id < n; id++ {
		t := g.Tensors[id]
		var reads, writes int
		for _, a := range t.AccessLayers {
			reads += a.Reads
			writes += a.Writes
		}
		b := float64(t.Size) * (float64(reads)*deltaRead + float64(writes)*deltaWrite)
		benefit[2*id] = b
		size := float64(t.Size)
		var fast []termRef
		for l := t.AllocLayer; l <= t.FreeLayer; l++ {
			fast = append(fast, termRef{l, size})
		}
		if gp := largestGap(t); gp.resume-gp.end > 2 {
			gaps[id] = gp
			benefit[2*id+1] = b - size*moveCost
			var off []termRef
			for l := t.AllocLayer; l <= t.FreeLayer; l++ {
				if l > gp.end && l < gp.resume {
					continue
				}
				off = append(off, termRef{l, size})
			}
			excl := len(bound)
			bound = append(bound, 1)
			fast = append(fast, termRef{excl, 1})
			cols[2*id+1] = append(off, termRef{excl, 1})
		}
		cols[2*id] = fast
	}
	return benefit, bound, cols, gaps
}

// TestPlacementSpansExpandToTerms checks that AutoTM's span-form
// placement ILP, written out one term per row, is exactly the per-layer
// term problem: the same benefits bit for bit, the same bounds, the same
// coefficients in the same rows, and the same offload gaps. The term
// problem gives every tensor an offload variable (variable 2*id+1); the
// span form drops those of tensors without an idle gap, so each of them
// must have had no benefit and no column, and the span form's variables
// must be the others in the same order.
func TestPlacementSpansExpandToTerms(t *testing.T) {
	cases := []struct {
		name  string
		model string
		batch int
		spec  func(peak int64) memsys.Spec
	}{
		{"resnet32-optane-20pct", "resnet32", 128,
			func(peak int64) memsys.Spec { return memsys.OptaneHM().WithFastSize(peak / 5) }},
		{"resnet200-gpu-512", "resnet200", 512,
			func(int64) memsys.Spec { return memsys.GPUHM() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := model.Build(c.model, c.batch)
			if err != nil {
				t.Fatal(err)
			}
			spec := c.spec(g.PeakMemory())
			prob, gaps := placementProblem(g, spec)
			benefit, bound, cols, wantGaps := termProblem(g, spec)

			// kept[vi] is the term variable span-form variable vi stands for.
			var kept []int
			for id := range g.Tensors {
				kept = append(kept, 2*id)
				if wantGaps[id].offloadable() {
					kept = append(kept, 2*id+1)
				} else if benefit[2*id+1] != 0 || len(cols[2*id+1]) != 0 {
					t.Fatalf("tensor %d has no idle gap but an offload benefit %v and column %v", id, benefit[2*id+1], cols[2*id+1])
				}
			}
			if len(prob.Benefit) != len(kept) || len(prob.Cols) != len(kept) {
				t.Fatalf("%d variables (%d columns), want %d", len(prob.Benefit), len(prob.Cols), len(kept))
			}
			for i, b := range prob.Benefit {
				if want := benefit[kept[i]]; math.Float64bits(b) != math.Float64bits(want) {
					t.Fatalf("benefit[%d] = %v, want %v", i, b, want)
				}
			}
			if len(prob.Bound) != len(bound) {
				t.Fatalf("%d rows, want %d", len(prob.Bound), len(bound))
			}
			for r, b := range prob.Bound {
				if float64(b) != bound[r] {
					t.Fatalf("bound[%d] = %d, want %v", r, b, bound[r])
				}
			}
			for vi, col := range prob.Cols {
				if len(col) > 3 {
					t.Fatalf("variable %d has %d spans, want at most 3", vi, len(col))
				}
				var got []termRef
				for _, sp := range col {
					if sp.Lo > sp.Hi {
						t.Fatalf("variable %d has an empty span %+v", vi, sp)
					}
					for r := sp.Lo; r <= sp.Hi; r++ {
						got = append(got, termRef{r, float64(sp.Coef)})
					}
				}
				if want := cols[kept[vi]]; !slices.Equal(got, want) {
					t.Fatalf("variable %d expands to %v, want %v", vi, got, want)
				}
			}
			if !slices.Equal(gaps, wantGaps) {
				t.Fatal("offload gaps differ from the term builder's")
			}
		})
	}
}

// TestAutoTMOffloadKeysMatchSprintf checks that AutoTM's per-tensor
// offload group key, built with strconv, is fmt.Sprintf's off-<id> for
// every tensor of resnet32 and bert-base.
func TestAutoTMOffloadKeysMatchSprintf(t *testing.T) {
	for _, c := range []struct {
		model string
		batch int
	}{{"resnet32", 128}, {"bert-base", 16}} {
		g, err := model.Build(c.model, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		p := NewAutoTM()
		p.solved = true
		p.planFast = make([]bool, len(g.Tensors))
		p.planOffload = make([]bool, len(g.Tensors))
		for i := range p.planOffload {
			p.planOffload[i] = true
		}
		group := p.AllocConfig(g).Group
		for _, tt := range g.Tensors {
			if got, want := group(tt), fmt.Sprintf("off-%d", tt.ID); got != want {
				t.Fatalf("%s tensor %d: key %q, want %q", c.model, tt.ID, got, want)
			}
		}
	}
}
