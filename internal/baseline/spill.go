package baseline

import (
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/tensor"
)

// largeSpill is the on-demand evictor Capuchin and AutoTM share: it spills
// the graph's large (at least 1 MiB) tensors that are not short-lived, in
// graph order. The order is built once per graph and rebuilt when the
// runtime swaps its graph.
type largeSpill struct {
	g     *graph.Graph
	order []tensor.ID
}

// MakeRoom implements exec.Evictor.
func (p *largeSpill) MakeRoom(rt *exec.Runtime, need int64) int64 {
	if g := rt.Graph(); g != p.g {
		p.g, p.order = g, p.order[:0]
		for _, t := range g.Tensors {
			if !t.ShortLived() && t.Size >= 1<<20 {
				p.order = append(p.order, t.ID)
			}
		}
	}
	return rt.EvictInOrder(p.order, need)
}
