package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/tensor"
)

// byFarthestThenID is the eviction order farthestFirst must produce, as a
// comparator: next access descending, then tensor id ascending.
func byFarthestThenID(a, b evictCand) int {
	if c := cmp.Compare(b.next, a.next); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// ascendingIDCands returns one candidate per next access, with strictly
// ascending ids: the order MakeRoom collects them in.
func ascendingIDCands(rng *rand.Rand, nexts []int) []evictCand {
	cands := make([]evictCand, len(nexts))
	id := tensor.ID(rng.Intn(4))
	for i, next := range nexts {
		cands[i] = evictCand{id: id, next: next}
		id += tensor.ID(1 + rng.Intn(3))
	}
	return cands
}

// TestFarthestFirstMatchesSort checks the bucket pass that builds
// MakeRoom's standing order against a comparison sort with the stated tie
// rule, over inputs of growing and shrinking size and key range. Keys lie
// where MakeRoom's do: in (l+1, 2*numLayers).
func TestFarthestFirstMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(label string, nexts []int) {
		t.Helper()
		cands := ascendingIDCands(rng, nexts)
		sorted := slices.Clone(cands)
		slices.SortFunc(sorted, byFarthestThenID)
		in := slices.Clone(cands)
		got := farthestFirst(cands)
		if got == nil {
			t.Fatalf("%s: nil order", label)
		}
		if len(got) != len(sorted) {
			t.Fatalf("%s: %d candidates in, %d out", label, len(sorted), len(got))
		}
		for i, c := range sorted {
			if got[i] != c.id {
				t.Fatalf("%s: %d candidates, position %d holds id %d, want %+v", label, len(sorted), i, got[i], c)
			}
		}
		if !slices.Equal(cands, in) {
			t.Fatalf("%s: farthestFirst modified its input", label)
		}
	}

	check("empty", nil)
	check("single", []int{7})
	ties := make([]int, 64)
	for i := range ties {
		ties[i] = 40
	}
	check("all ties", ties)
	const numLayers, curLayer = 300, 0
	lo, hi := curLayer+2, 2*numLayers-1
	check("both ends", []int{hi, lo, lo, hi, lo + 1, hi - 1, hi, lo})
	check("two keys", []int{lo, hi})

	for round := range 2000 {
		n := rng.Intn(600)
		cur := rng.Intn(numLayers)
		lo := cur + 2
		span := 2*numLayers - lo
		if round%2 == 0 {
			span = 1 + rng.Intn(4) // many ties
		}
		nexts := make([]int, n)
		for i := range nexts {
			nexts[i] = lo + rng.Intn(span)
		}
		check(fmt.Sprintf("random round %d", round), nexts)
	}
}

// TestEvictableAscendingIDs checks the premise that lets farthestFirst
// break ties by input order: evictable lists candidates in ascending
// tensor id.
func TestEvictableAscendingIDs(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDefault()
	rt, err := exec.NewRuntime(g, memsys.OptaneHM().WithFastSize(g.PeakMemory()/5), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	v := s.cur
	if len(v.evictable) == 0 {
		t.Fatal("no eviction candidates")
	}
	for j := 1; j < len(v.evictable); j++ {
		if a, b := v.prof.Tensors[v.evictable[j-1]].ID, v.prof.Tensors[v.evictable[j]].ID; a >= b {
			t.Fatalf("evictable[%d..%d] has ids %d, %d: not ascending", j-1, j, a, b)
		}
	}
}
