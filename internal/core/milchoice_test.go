package core

import (
	"fmt"
	"sort"
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// TestChooseMILOracle checks the feasible-first interval search against
// an exhaustive one. Over every built-in model that profiles, at batches 8
// to 1024, on Optane at 3-100% of peak and on the GPU preset, it asserts
// that every candidate's estimate equals refModel's projection, and that
// BuildPlan picks the candidate the rule ranks first: feasible before
// infeasible, then the lower step time, then the longer interval. Besides
// the fractions of peak, each Optane profile is planned with the budget
// exactly at the largest interval of MIL 1 and of MIL NumLayers (Equation
// 1 holding with equality), and once on a machine with free
// synchronization and migration, where every candidate ties.
func TestChooseMILOracle(t *testing.T) {
	var cases, noFeasible, ties int
	check := func(label string, p *profile.Profile, spec memsys.Spec, st LayerDecomp) {
		t.Helper()
		cases++
		ref := newRefModel(p, spec, shortReserve(p), st)
		got := MILEstimates(p, spec, st)
		want := make([]MILEstimate, p.NumLayers)
		for i := range want {
			want[i] = ref.estimate(i + 1)
			if got[i] != want[i] {
				t.Fatalf("%s MIL=%d: estimate\n got %+v\nwant %+v", label, i+1, got[i], want[i])
			}
		}
		best := wantMIL(want)
		if !want[best-1].Feasible {
			noFeasible++
		}
		for _, e := range want {
			if e.MIL != best && e.Feasible == want[best-1].Feasible && e.StepTime == want[best-1].StepTime {
				ties++
				break
			}
		}
		pl, err := BuildPlan(p, spec, st, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if pl.MIL != best {
			t.Fatalf("%s: chose MIL %d, the exhaustive search picks %d (%+v)", label, pl.MIL, best, want[best-1])
		}
	}
	for _, name := range model.Names() {
		for _, batch := range []int{8, 128, 1024} {
			g, err := model.Build(name, batch)
			if err != nil {
				t.Fatal(err)
			}
			optane := memsys.OptaneHM()
			if p, err := profile.Collect(g, optane); err == nil {
				// A decomposition with compute time exercises the
				// overlap term; the profile's own is memory-only.
				split := LayerDecomp{Mem: p.LayerTime, Compute: make([]simtime.Duration, len(p.LayerTime))}
				for l, d := range p.LayerTime {
					split.Compute[l] = d / 3
				}
				for _, pct := range []int{3, 10, 25, 50, 100} {
					spec := optane.WithFastSize(int64(pct) * g.PeakMemory() / 100)
					check(fmt.Sprintf("%s/b%d/optane-%d%%", name, batch, pct), p, spec, LayerDecompFromProfile(p))
					check(fmt.Sprintf("%s/b%d/optane-%d%%/split", name, batch, pct), p, spec, split)
				}
				ref := newRefModel(p, optane, shortReserve(p), split)
				for _, mil := range []int{1, p.NumLayers} {
					spec := optane.WithFastSize(shortReserve(p) + ref.maxTotal(mil))
					check(fmt.Sprintf("%s/b%d/optane-at-MIL-%d", name, batch, mil), p, spec, split)
				}
				free := optane
				free.SyncCost, free.MigrationBW = 0, 1e30
				check(fmt.Sprintf("%s/b%d/optane-free-sync", name, batch), p, free, split)
			}
			gpu := memsys.GPUHM()
			if p, err := profile.Collect(g, gpu); err == nil {
				check(fmt.Sprintf("%s/b%d/gpu", name, batch), p, gpu, LayerDecompFromProfile(p))
			}
		}
	}
	t.Logf("%d plans, %d with no feasible candidate, %d with a tie at the top", cases, noFeasible, ties)
	if noFeasible == 0 || noFeasible == cases || ties == 0 {
		t.Fatalf("the cases no longer cover both search paths and ties: %d plans, %d with no feasible candidate, %d ties",
			cases, noFeasible, ties)
	}
}

// wantMIL is the exhaustive pick over every candidate's estimate.
func wantMIL(ests []MILEstimate) int {
	best := ests[0]
	for _, e := range ests[1:] {
		switch {
		case e.Feasible != best.Feasible:
			if e.Feasible {
				best = e
			}
		case e.StepTime < best.StepTime:
			best = e
		case e.StepTime == best.StepTime && e.MIL > best.MIL:
			best = e
		}
	}
	return best.MIL
}

// refModel is the performance model's projection in its direct form,
// built from the profile alone: group the long-lived tensors into ordered
// per-interval need lists for every candidate, then walk each list
// against the Equation 1 budget.
type refModel struct {
	p         *profile.Profile
	spec      memsys.Spec
	reserve   int64
	fastLayer []simtime.Duration
	byLayer   [][]tensor.ID
}

func newRefModel(p *profile.Profile, spec memsys.Spec, reserve int64, st LayerDecomp) *refModel {
	m := &refModel{p: p, spec: spec, reserve: reserve}
	var longLived []tensor.ID
	for i := range p.Tensors {
		if !p.Tensors[i].ShortLived() {
			longLived = append(longLived, p.Tensors[i].ID)
		}
	}
	sort.Slice(longLived, func(a, b int) bool {
		ta, tb := p.ByID(longLived[a]), p.ByID(longLived[b])
		if ta.Accesses != tb.Accesses {
			return ta.Accesses > tb.Accesses
		}
		return ta.ID < tb.ID
	})
	ratio := fastMemRatio(spec)
	m.fastLayer = make([]simtime.Duration, p.NumLayers)
	for l := 0; l < p.NumLayers; l++ {
		c := st.compute(l)
		mem := simtime.FromSeconds(st.mem(l).Seconds() * ratio)
		d := c
		if mem > d {
			d = mem
		}
		lo := c
		if mem < lo {
			lo = mem
		}
		m.fastLayer[l] = d + simtime.FromSeconds((1-spec.OverlapFactor)*lo.Seconds())
	}
	m.byLayer = make([][]tensor.ID, p.NumLayers)
	for _, id := range longLived {
		for _, a := range p.ByID(id).PerLayer {
			m.byLayer[a.Layer] = append(m.byLayer[a.Layer], id)
		}
	}
	return m
}

// intervalNeeds lists, for each interval of mil layers, the long-lived
// tensors it accesses, by first access layer there, then access count.
func (m *refModel) intervalNeeds(mil int) [][]tensor.ID {
	needs := make([][]tensor.ID, (m.p.NumLayers+mil-1)/mil)
	mark := make([]int, len(m.p.Tensors))
	for l := 0; l < m.p.NumLayers; l++ {
		k := l / mil
		for _, id := range m.byLayer[l] {
			if mark[id] != k+1 {
				mark[id] = k + 1
				needs[k] = append(needs[k], id)
			}
		}
	}
	return needs
}

// maxTotal is the largest interval's need bytes at length mil.
func (m *refModel) maxTotal(mil int) int64 {
	var most int64
	for _, ids := range m.intervalNeeds(mil) {
		var n int64
		for _, id := range ids {
			n += m.p.ByID(id).Size
		}
		most = max(most, n)
	}
	return most
}

func (m *refModel) estimate(mil int) MILEstimate {
	est := MILEstimate{MIL: mil, Feasible: true}
	needs := m.intervalNeeds(mil)
	n := len(needs)
	budget := m.spec.Fast.Size - m.reserve
	if budget < 0 {
		budget = 0
	}
	intTime := make([]simtime.Duration, n)
	for l := 0; l < m.p.NumLayers; l++ {
		intTime[l/mil] += m.fastLayer[l]
	}
	deltaRead := 1/m.spec.Slow.ReadBW - 1/m.spec.Fast.ReadBW
	deltaWrite := 1/m.spec.Slow.WriteBW - 1/m.spec.Fast.WriteBW
	var total simtime.Duration
	for k := 0; k < n; k++ {
		var bytes, overflow int64
		var slowPenalty simtime.Duration
		for _, id := range needs[k] {
			ts := m.p.ByID(id)
			if bytes+ts.Size <= budget {
				bytes += ts.Size
				continue
			}
			overflow += ts.Size
			var reads, writes int
			for _, a := range ts.PerLayer {
				if a.Layer/mil == k {
					reads += a.Reads
					writes += a.Writes
				}
			}
			slowPenalty += simtime.FromSeconds(overflowMitigation * float64(ts.Size) *
				(float64(reads)*deltaRead + float64(writes)*deltaWrite))
		}
		if overflow > est.OverflowBytes {
			est.OverflowBytes = overflow
		}
		if overflow > 0 {
			est.Feasible = false
		}
		mig := simtime.TransferTime(bytes, m.spec.MigrationBW)
		prev := intTime[(k-1+n)%n]
		exposed := mig - prev
		if exposed < 0 {
			exposed = 0
		}
		est.Exposed += exposed
		total += intTime[k] + exposed + slowPenalty + m.spec.SyncCost
	}
	est.StepTime = total
	return est
}
