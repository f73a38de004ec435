package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sentinel/internal/kernel"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := Build(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumLayers < 3 {
				t.Fatalf("only %d layers", g.NumLayers)
			}
			if len(g.Tensors) < 50 {
				t.Fatalf("only %d tensors", len(g.Tensors))
			}
			if g.PeakMemory() <= 0 || g.TotalFLOPs() <= 0 {
				t.Fatal("non-positive peak or flops")
			}
		})
	}
}

// TestBuildAllocs bounds graph construction's heap allocations: the
// builder lays a graph out in a few arrays, so resnet200 at batch 512
// (4,870 tensors, 543 ops) costs about 580 allocations, nearly all of
// them the model's specs and the builder's log blocks. One heap object
// per tensor or name would add thousands.
func TestBuildAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() {
		if _, err := Build("resnet200", 512); err != nil {
			t.Fatal(err)
		}
	}); n > 1000 {
		t.Fatalf("Build(resnet200, 512) made %.0f allocations, want <= 1000", n)
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := Build("alexnet", 8); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestNamesAndKnown checks that Names is sorted, names exactly the models
// Known accepts, and hands each caller its own slice.
func TestNamesAndKnown(t *testing.T) {
	names := Names()
	if !slices.IsSorted(names) || len(names) != len(registry) {
		t.Fatalf("Names() = %v, want the %d registered names sorted", names, len(registry))
	}
	for _, n := range names {
		if !Known(n) {
			t.Errorf("Known(%q) = false", n)
		}
	}
	if Known("resnet9999") || Known("") {
		t.Error("Known accepts an unregistered name")
	}
	names[0] = "clobbered"
	if Names()[0] == "clobbered" {
		t.Error("Names returned the shared slice")
	}
}

func TestBadBatch(t *testing.T) {
	for _, name := range Names() {
		if _, err := Build(name, 0); err == nil {
			t.Errorf("%s: batch 0 accepted", name)
		}
	}
}

func TestResNetDepths(t *testing.T) {
	for _, d := range []int{20, 32, 44, 56, 110, 50, 101, 152, 200} {
		if _, err := ResNet(d, 4); err != nil {
			t.Errorf("depth %d: %v", d, err)
		}
	}
	for _, d := range []int{7, 33, 18} {
		if _, err := ResNet(d, 4); err == nil {
			t.Errorf("invalid depth %d accepted", d)
		}
	}
}

func TestBERTVariants(t *testing.T) {
	base, err := BERT("base", 8)
	if err != nil {
		t.Fatal(err)
	}
	large, err := BERT("large", 8)
	if err != nil {
		t.Fatal(err)
	}
	if large.PeakMemory() <= base.PeakMemory() {
		t.Fatal("bert-large not larger than bert-base")
	}
	if _, err := BERT("huge", 8); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestBatchScaling: activations scale with batch, weights do not, so peak
// memory grows sublinearly in batch but strictly monotonically.
func TestBatchScaling(t *testing.T) {
	for _, name := range []string{"resnet32", "bert-base", "mobilenet"} {
		g1, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := Build(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		p1, p2 := g1.PeakMemory(), g2.PeakMemory()
		if p2 <= p1 {
			t.Errorf("%s: peak did not grow with batch (%d -> %d)", name, p1, p2)
		}
		if p2 >= 4*p1 {
			t.Errorf("%s: peak grew superlinearly with batch (%d -> %d); weights should not scale", name, p1, p2)
		}
		if g2.TotalFLOPs() <= g1.TotalFLOPs() {
			t.Errorf("%s: flops did not grow with batch", name)
		}
	}
}

// TestDeeperResNetUsesMoreMemory checks the Fig. 11 premise.
func TestDeeperResNetUsesMoreMemory(t *testing.T) {
	prev := int64(0)
	for _, d := range []int{20, 32, 44, 56} {
		g, err := ResNet(d, 64)
		if err != nil {
			t.Fatal(err)
		}
		if g.PeakMemory() <= prev {
			t.Fatalf("resnet%d peak %d not larger than previous %d", d, g.PeakMemory(), prev)
		}
		prev = g.PeakMemory()
	}
}

// TestPopulationShape checks the Observation 1 statistics the generators
// are calibrated to: most tensors short-lived, most of those sub-page.
func TestPopulationShape(t *testing.T) {
	for _, m := range EvalSet() {
		g, err := Build(m.Name, m.SmallBatch)
		if err != nil {
			t.Fatal(err)
		}
		s := g.ComputeStats(kernel.PageSize)
		shortFrac := float64(s.ShortLived) / float64(s.Tensors)
		if shortFrac < 0.75 {
			t.Errorf("%s: only %.0f%% of tensors short-lived (paper: ~92%%)", m.Name, 100*shortFrac)
		}
		smallFrac := float64(s.SmallShortLived) / float64(s.ShortLived)
		if smallFrac < 0.80 {
			t.Errorf("%s: only %.0f%% of short-lived tensors sub-page (paper: ~98%%)", m.Name, 100*smallFrac)
		}
		// The short-lived peak must stay a modest fraction of total
		// peak, or the reserved pool would defeat the 20% budget.
		if frac := float64(s.PeakShortLived) / float64(s.PeakBytes); frac > 0.25 {
			t.Errorf("%s: short-lived peak is %.0f%% of total peak", m.Name, 100*frac)
		}
	}
}

// TestShortLivedNeverEscapeLayer: the definitional invariant behind the
// reserved pool.
func TestShortLivedNeverEscapeLayer(t *testing.T) {
	g, err := Build("resnet32", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range g.Tensors {
		if !ts.ShortLived() {
			continue
		}
		for _, a := range ts.AccessLayers {
			if a.Layer != ts.AllocLayer {
				t.Fatalf("short-lived %s accessed outside its layer", ts.Name)
			}
		}
	}
}

func TestEvalSets(t *testing.T) {
	for _, m := range EvalSet() {
		if _, err := Build(m.Name, m.SmallBatch); err != nil {
			t.Errorf("eval model %s small: %v", m.Name, err)
		}
	}
	for _, m := range GPUEvalSet() {
		if _, err := Build(m.Name, m.Batches[0]); err != nil {
			t.Errorf("gpu eval model %s: %v", m.Name, err)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	const spec = `{
	  "model": "custom-net", "batch": 16, "input_bytes": 602112,
	  "blocks": [
	    {"name": "conv1", "out_bytes": 12845056, "flops": 2.1e9,
	     "weights": [{"name": "w", "size": 9408, "hot": 64}],
	     "mid_bytes": [12845056], "tiny_scratch": 8},
	    {"name": "fc", "out_bytes": 64000, "flops": 1e8,
	     "weights": [{"name": "w", "size": 4096000}], "sweeps": 2}
	  ],
	  "loss_flops": 1e6
	}`
	g, err := LoadSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if g.Model != "custom-net" || g.Batch != 16 {
		t.Fatalf("identity lost: %s/%d", g.Model, g.Batch)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumLayers != 5 { // 2 fwd + loss + 2 bwd
		t.Fatalf("layers = %d", g.NumLayers)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         `{}`,
		"no blocks":     `{"model":"m","batch":1,"input_bytes":4}`,
		"no weights":    `{"model":"m","batch":1,"input_bytes":4,"blocks":[{"name":"b","out_bytes":4,"flops":1}]}`,
		"zero out":      `{"model":"m","batch":1,"input_bytes":4,"blocks":[{"name":"b","out_bytes":0,"flops":1,"weights":[{"name":"w","size":4}]}]}`,
		"unknown field": `{"model":"m","batch":1,"input_bytes":4,"blox":[]}`,
		"bad json":      `{`,
	}
	for name, spec := range cases {
		if _, err := LoadSpec(strings.NewReader(spec)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRandomChainsValid drives BuildChain with randomized block specs and
// checks every generated graph validates — the builder's structural
// invariants hold across the whole input space, not just the curated zoo.
func TestRandomChainsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		nBlocks := 1 + rng.Intn(8)
		cs := ChainSpec{
			Model:      "random",
			Batch:      1 + rng.Intn(64),
			InputBytes: int64(1 + rng.Intn(1<<20)),
			LossFLOPs:  float64(rng.Intn(1000)),
		}
		for b := 0; b < nBlocks; b++ {
			blk := BlockSpec{
				Name:     fmt.Sprintf("b%d", b),
				OutBytes: int64(1 + rng.Intn(1<<22)),
				Weights: []WeightSpec{
					{Name: "w", Size: int64(1 + rng.Intn(1<<20)), Hot: 1 + rng.Intn(100)},
				},
				TinyScratch: rng.Intn(20),
				Sweeps:      rng.Intn(5),
				FLOPs:       float64(rng.Intn(1_000_000)),
			}
			for m := 0; m < rng.Intn(3); m++ {
				blk.MidBytes = append(blk.MidBytes, int64(1+rng.Intn(1<<21)))
			}
			for sh := 0; sh < rng.Intn(3); sh++ {
				blk.ShortBytes = append(blk.ShortBytes, int64(1+rng.Intn(1<<20)))
			}
			if rng.Intn(2) == 0 {
				blk.ScratchBytes = int64(1 + rng.Intn(1<<20))
			}
			if rng.Intn(3) == 0 {
				blk.Weights = append(blk.Weights, WeightSpec{Name: "bn", Size: int64(1 + rng.Intn(4096)), Hot: 1 + rng.Intn(200)})
			}
			cs.Blocks = append(cs.Blocks, blk)
		}
		g, err := BuildChain(cs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.NumLayers != 2*nBlocks+1 {
			t.Fatalf("trial %d: %d layers for %d blocks", trial, g.NumLayers, nBlocks)
		}
	}
}
