package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"sentinel/internal/tensor"
)

// TestLRUOrderMatchesSort checks UM's counting pass against the packed-key
// sort it replaced: the live tensors recorded before the current op, as
// last<<32|id keys in ascending order. One UM is reused across calls of
// growing and shrinking size, so stale scratch would show.
func TestLRUOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewUM()
	for round := range 2000 {
		n := rng.Intn(800)
		p.opIdx = rng.Intn(300)
		span := p.opIdx + 20 // some accesses at or after the current op
		if round%2 == 0 {
			span = 1 + rng.Intn(4) // many ties
		}
		dead := rng.Float64()
		p.recency = p.recency[:0]
		var keys []int64
		for id := range n {
			if rng.Float64() < dead {
				p.recency = append(p.recency, -1)
				continue
			}
			last := rng.Intn(span)
			p.recency = append(p.recency, int32(last))
			if last < p.opIdx {
				keys = append(keys, int64(last)<<32|int64(id))
			}
		}
		slices.Sort(keys)
		want := make([]tensor.ID, len(keys))
		for i, k := range keys {
			want[i] = tensor.ID(int32(k))
		}
		if got := p.lruOrder(); !slices.Equal(got, want) {
			t.Fatalf("round %d: %d tensors at op %d: order %v, want %v", round, n, p.opIdx, got, want)
		}
	}
}
