package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sentinel/internal/alloc"
	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
	"sentinel/internal/tensor"
)

// refWalk is the per-call scan-then-spill MakeRoom that the standing
// orders replaced, reduced to the ids its two loops offer MigrateTensor
// when nothing moves: every live tensor the plan does not mark
// short-lived and layer l+1 does not need, farthest next use first
// (comparison sort, ties by ascending id), then every live tensor layer l
// does not access, in profile order. It reads the plan's short-lived set
// itself rather than evictable.
func refWalk(v *variantState, l int, live func(tensor.ID) bool) (farthest, spill []tensor.ID) {
	prof, plan := v.prof, v.plan
	var cands []evictCand
	for i := range prof.Tensors {
		ts := &prof.Tensors[i]
		if int(ts.ID) < len(plan.Short) && plan.Short[ts.ID] {
			continue
		}
		if !live(ts.ID) {
			continue
		}
		next := ts.NextAccessAfter(l)
		if next == -1 {
			next = prof.NumLayers + ts.AllocLayer // wraps to next step
		}
		if next <= l+1 {
			continue // needed immediately
		}
		cands = append(cands, evictCand{id: ts.ID, next: next})
	}
	slices.SortFunc(cands, byFarthestThenID)
	for _, c := range cands {
		farthest = append(farthest, c.id)
	}
	for i := range prof.Tensors {
		ts := &prof.Tensors[i]
		if !live(ts.ID) {
			continue
		}
		accessedNow := false
		for _, a := range ts.PerLayer {
			if a.Layer == l {
				accessedNow = true
				break
			}
		}
		if accessedNow {
			continue
		}
		spill = append(spill, ts.ID)
	}
	return farthest, spill
}

// liveOf keeps the ids of order that live accepts, in order: what a walk
// of the standing order offers MigrateTensor on a live tensor.
func liveOf(order []tensor.ID, live func(tensor.ID) bool) []tensor.ID {
	var out []tensor.ID
	for _, id := range order {
		if live(id) {
			out = append(out, id)
		}
	}
	return out
}

// memoChecker runs Sentinel and, after every callback that can reach
// MakeRoom, compares each standing order built for the callback's layer
// with refWalk over the runtime's live tensors. Those callbacks migrate
// but never allocate or free, so the live set after the callback is the
// one MakeRoom walked.
type memoChecker struct {
	*Sentinel
	t *testing.T
	// lastPlan detects a plan swap; checks after the first swap are
	// counted apart, as they run on orders setPlan must have reset.
	lastPlan                    *Plan
	swaps                       int
	farthestChecks, spillChecks int
	checksAfterSwap             int
}

func (c *memoChecker) LayerStart(l int) {
	c.Sentinel.LayerStart(l)
	c.check(l, "LayerStart")
}

func (c *memoChecker) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	c.Sentinel.TensorAllocated(t, r)
	c.check(c.curLayer, "TensorAllocated")
}

func (c *memoChecker) MakeRoom(rt *exec.Runtime, need int64) int64 {
	freed := c.Sentinel.MakeRoom(rt, need)
	c.check(c.curLayer, "MakeRoom")
	return freed
}

func (c *memoChecker) check(l int, where string) {
	c.t.Helper()
	v := c.cur
	if v == nil || v.prof == nil {
		return
	}
	if v.plan != c.lastPlan {
		if c.lastPlan != nil {
			c.swaps++
		}
		c.lastPlan = v.plan
	}
	far, spill := v.farthest[l], v.spill[l]
	if far == nil && spill == nil {
		return
	}
	live := func(id tensor.ID) bool { _, ok := c.rt.Alloc().Region(id); return ok }
	wantFar, wantSpill := refWalk(v, l, live)
	if far != nil {
		c.farthestChecks++
		if got := liveOf(far, live); !slices.Equal(got, wantFar) {
			c.t.Fatalf("%s at layer %d: farthest-first walk visits %v, reference %v", where, l, got, wantFar)
		}
	}
	if spill != nil {
		c.spillChecks++
		if got := liveOf(spill, live); !slices.Equal(got, wantSpill) {
			c.t.Fatalf("%s at layer %d: last-resort walk visits %v, reference %v", where, l, got, wantSpill)
		}
	}
	if c.swaps > 0 {
		c.checksAfterSwap++
	}
}

// TestMakeRoomMemoMatchesScan checks, on the GPU cells that exercise
// every part of MakeRoom, that the standing orders it walks offer
// MigrateTensor the same live tensors in the same order as the per-call
// scan: resnet200 at b1024 reaches the last-resort loop, and the online
// resnet32 cell, whose fast tier shrinks 25% at step 1, replans through
// setPlan.
func TestMakeRoomMemoMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name      string
		model     string
		batch     int
		opts      []exec.Option
		fast      float64 // fast tier as a share of peak memory; 0 keeps GPUHM's
		steps     int
		wantSpill bool
		wantSwap  bool
	}{
		{"resnet200-b1024", "resnet200", 1024, nil, 0, 4, true, false},
		{"chaos-online-resnet32", "resnet32", 128, []exec.Option{
			exec.WithChaos(chaos.New(chaos.Config{Seed: 42, ShrinkAtStep: 1, ShrinkFrac: 0.25})),
			exec.WithOnline(exec.DefaultOnline()),
		}, 0.2, 8, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := model.Build(tc.model, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			spec := memsys.GPUHM()
			if tc.fast > 0 {
				spec = spec.WithFastSize(int64(tc.fast * float64(g.PeakMemory())))
			}
			cfg := DefaultConfig()
			cfg.TestAndTrial = false
			c := &memoChecker{Sentinel: New(cfg), t: t}
			rt, err := exec.NewRuntime(g, spec, c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.RunSteps(tc.steps); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d farthest-first checks, %d last-resort checks, %d plan swaps, %d checks after a swap",
				c.farthestChecks, c.spillChecks, c.swaps, c.checksAfterSwap)
			if c.farthestChecks == 0 {
				t.Error("MakeRoom never ran")
			}
			if tc.wantSpill && c.spillChecks == 0 {
				t.Error("the last-resort loop never ran")
			}
			if tc.wantSwap && (c.swaps == 0 || c.checksAfterSwap == 0) {
				t.Errorf("no MakeRoom after a plan swap (%d swaps)", c.swaps)
			}
		})
	}
}

// TestMakeRoomMemoRandom checks the standing orders against refWalk at
// random layers under random live subsets, on one variantState whose plan
// setPlan swaps between two models' profiles, so an order built for one
// plan that outlives it is caught.
func TestMakeRoomMemoRandom(t *testing.T) {
	type planned struct {
		name string
		prof *profile.Profile
		plan *Plan
	}
	var plans []planned
	for _, m := range []struct {
		name  string
		batch int
	}{{"resnet32", 128}, {"mobilenet", 64}} {
		g, err := model.Build(m.name, m.batch)
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
		plans = append(plans, planned{fmt.Sprintf("%s/%d", m.name, m.batch), s.cur.prof, s.cur.plan})
	}

	rng := rand.New(rand.NewSource(1))
	v := &variantState{}
	for round := range 40 {
		p := plans[round%len(plans)]
		v.setPlan(p.prof, p.plan)
		numLayers := p.prof.NumLayers
		for range 50 {
			l := rng.Intn(numLayers)
			if rng.Intn(4) == 0 {
				l = rng.Intn(4) // revisit a few layers often
			}
			density := rng.Float64()
			liveSet := map[tensor.ID]bool{}
			for i := range p.prof.Tensors {
				if rng.Float64() < density {
					liveSet[p.prof.Tensors[i].ID] = true
				}
			}
			live := func(id tensor.ID) bool { return liveSet[id] }
			wantFar, wantSpill := refWalk(v, l, live)
			if got := liveOf(v.farthestFirstAt(l), live); !slices.Equal(got, wantFar) {
				t.Fatalf("round %d (%s), layer %d: farthest-first walk visits %v, reference %v", round, p.name, l, got, wantFar)
			}
			if got := liveOf(v.spillAt(l), live); !slices.Equal(got, wantSpill) {
				t.Fatalf("round %d (%s), layer %d: last-resort walk visits %v, reference %v", round, p.name, l, got, wantSpill)
			}
		}
	}
}
