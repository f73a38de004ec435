package baseline

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/ga"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/simtime"
)

// refScoreSchedule is the reference GA fitness: exposed transfer time
// plus capacity violation penalties, recomputed from the graph on every
// call. The scorer Setup builds must agree with it bit for bit.
func refScoreSchedule(p *SwapAdvisor, gen ga.Genome) float64 {
	g := p.rt.Graph()
	spec := p.rt.Spec()
	layerT := staticLayerTimes(g, spec)
	// Fast usage per layer, assuming non-swapped tensors are resident.
	usage := make([]int64, g.NumLayers)
	for _, t := range g.Tensors {
		for l := t.AllocLayer; l <= t.FreeLayer; l++ {
			usage[l] += t.Size
		}
	}
	var exposed float64
	for i, c := range p.cands {
		lead := gen[i]
		if lead == 0 {
			continue
		}
		for l := c.end + 1; l < c.resume && l < len(usage); l++ {
			usage[l] -= c.size
		}
		var overlap simtime.Duration
		for l := c.resume - lead; l < c.resume && l >= 0; l++ {
			overlap += layerT[l]
		}
		transfer := simtime.TransferTime(c.size, spec.MigrationBW)
		if transfer > overlap {
			exposed += (transfer - overlap).Seconds()
		}
	}
	var penalty float64
	for l := range usage {
		if over := usage[l] - spec.Fast.Size; over > 0 {
			penalty += float64(over) * 1e-6
		}
	}
	return exposed + penalty
}

// genesDigest is an FNV-64a digest of a genome, one byte per gene.
func genesDigest(gen ga.Genome) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(gen))
	for i, v := range gen {
		buf[i] = byte(v)
	}
	h.Write(buf)
	return h.Sum64()
}

// TestSwapAdvisorSearchPinned pins SwapAdvisor's GA search: a digest of
// the chosen genes, the exact bits of the cost the GA returned for them
// (which must also be the reference fitness of those genes), and
// the modelled search latency (which counts fitness evaluations). The
// goldens only see the tables this search feeds; a change to how the
// fitness is computed must leave all of these identical.
func TestSwapAdvisorSearchPinned(t *testing.T) {
	cases := []struct {
		name       string
		model      string
		batch      int
		digest     uint64
		costBits   uint64
		searchCost simtime.Duration
	}{
		{"resnet200-gpu-512", "resnet200", 512, 0x7270a3998eeef772, 0x3fd18782e53bf33b, 1660 * simtime.Millisecond},
		{"bert-large-gpu-64", "bert-large", 64, 0x17d7cb362b1199e, 0, 1660 * simtime.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := model.Build(c.model, c.batch)
			if err != nil {
				t.Fatal(err)
			}
			p := NewSwapAdvisor()
			if _, err := exec.NewRuntime(g, memsys.GPUHM(), p); err != nil {
				t.Fatal(err)
			}
			digest := genesDigest(p.genes)
			costBits := math.Float64bits(p.cost)
			if ref := math.Float64bits(refScoreSchedule(p, p.genes)); ref != costBits {
				t.Fatalf("GA cost bits %#x, reference fitness of its genes %#x", costBits, ref)
			}
			if digest != c.digest || costBits != c.costBits || p.SearchCost != c.searchCost {
				t.Fatalf("GA search moved: digest %#x cost bits %#x search cost %d; pinned %#x %#x %d",
					digest, costBits, int64(p.SearchCost), c.digest, c.costBits, int64(c.searchCost))
			}
		})
	}
}

// TestSwapScorerMatchesReference checks the scorer Setup builds against
// the reference fitness bit for bit, on random genomes over several
// graphs and fast-tier sizes, plus a synthetic candidate whose prefetch
// lead reaches before layer 0.
func TestSwapScorerMatchesReference(t *testing.T) {
	cases := []struct {
		model    string
		batch    int
		fastFrac int64 // fast tier = peak/fastFrac; 0 keeps GPUHM's size
	}{
		{"resnet200", 512, 0},
		{"bert-large", 64, 0},
		{"bert-large", 64, 3},
		{"resnet32", 128, 4},
		{"lstm", 64, 2},
	}
	rng := rand.New(rand.NewSource(17))
	penalized := false
	for _, c := range cases {
		g, err := model.Build(c.model, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		spec := memsys.GPUHM()
		if c.fastFrac > 0 {
			spec = spec.WithFastSize(g.PeakMemory() / c.fastFrac)
		}
		p := NewSwapAdvisor()
		if _, err := exec.NewRuntime(g, spec, p); err != nil {
			t.Fatal(err)
		}
		// The synthetic candidate spans layers 0..2, so any lead above 2
		// starts its prefetch before layer 0.
		p.cands = append(p.cands, swapCandidate{id: 0, size: 3 << 20, end: 0, resume: 2})
		sc := newSwapScorer(g, spec, p.cands)
		exposed := false
		for trial := 0; trial < 40; trial++ {
			gen := make(ga.Genome, len(p.cands))
			switch trial {
			case 0: // nothing swapped: the score is the penalty alone
			case 1:
				gen[len(gen)-1] = saMaxLead
			default:
				for i := range gen {
					gen[i] = rng.Intn(saMaxLead + 1)
				}
			}
			got, want := sc.score(gen), refScoreSchedule(p, gen)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s b%d fast/%d trial %d: score %v, reference %v",
					c.model, c.batch, c.fastFrac, trial, got, want)
			}
			if trial == 0 && want > 0 {
				penalized = true
			}
			if trial > 0 && want > 0 {
				exposed = true
			}
		}
		if !exposed {
			t.Errorf("%s b%d fast/%d: every swapping genome scored 0; the comparison proves nothing",
				c.model, c.batch, c.fastFrac)
		}
	}
	if !penalized {
		t.Error("no case over-subscribes the fast tier; the penalty is never compared")
	}
}
