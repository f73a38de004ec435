package core

import (
	"slices"
	"testing"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// TestLongLivedShared checks that the profile's memoized long-lived list
// is one slice that no caller modifies: the planner's performance model
// and the online controller's sampler and blend all read the profile
// Sentinel planned from, and every later call must return the same
// slice with the same contents.
func TestLongLivedShared(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.GPUHM().WithFastSize(int64(0.2 * float64(g.PeakMemory())))
	s := NewDefault()
	inj := chaos.New(chaos.Config{Seed: 42, ShrinkAtStep: 1, ShrinkFrac: 0.25})
	rt, err := exec.NewRuntime(g, spec, s, exec.WithChaos(inj), exec.WithOnline(exec.DefaultOnline()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunStep(); err != nil {
		t.Fatal(err)
	}
	p := s.cur.prof
	long := p.LongLived()
	if len(long) == 0 {
		t.Fatal("no long-lived tensors")
	}
	want := slices.Clone(long)
	for i := 0; i < 2; i++ {
		if _, err := BuildPlan(p, spec, LayerDecompFromProfile(p), 0); err != nil {
			t.Fatal(err)
		}
	}
	run, err := rt.RunSteps(11)
	if err != nil {
		t.Fatal(err)
	}
	if run.Replans == 0 {
		t.Fatal("the capacity shrink caused no replan; the sampler and blend went unexercised")
	}
	got := p.LongLived()
	if &got[0] != &long[0] {
		t.Error("LongLived sorted the list again instead of returning the memoized one")
	}
	if !slices.Equal(got, want) {
		t.Error("a caller modified the shared long-lived list")
	}
	// experiment.RunPlan counts the short-lived tensors as the rest.
	short := 0
	for i := range p.Tensors {
		if p.Tensors[i].ShortLived() {
			short++
		}
	}
	if short+len(got) != len(p.Tensors) {
		t.Errorf("%d short-lived + %d long-lived != %d tensors", short, len(got), len(p.Tensors))
	}
}
