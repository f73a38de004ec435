package gpu_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/gpu"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
)

// factories returns one policy factory per registered policy name.
func factories(t *testing.T, names []string) []func() exec.Policy {
	t.Helper()
	fs := make([]func() exec.Policy, len(names))
	for i, name := range names {
		if _, err := policyset.New(name); err != nil {
			t.Fatal(err)
		}
		fs[i] = func() exec.Policy {
			p, _ := policyset.New(name)
			return p
		}
	}
	return fs
}

// countingBuild builds the named model and counts the graphs it builds.
func countingBuild(name string, builds *atomic.Int64) model.BuildFunc {
	return func(batch int) (*graph.Graph, error) {
		builds.Add(1)
		return model.Build(name, batch)
	}
}

// TestMaxBatchPinned pins quick Table V's searches: every maximum, and
// each search's probes in order with their verdicts ("+" fits, "x" does
// not), as independent one-policy searches make them. Lockstep must make
// exactly these probes while building each (model, batch) graph once:
// 81 probes over 41 graphs. The search probes the limit first and then
// bisects, which is sound only if fitting is monotone in batch, so every
// fitting probe of a search must also lie below every probe that did not
// fit.
func TestMaxBatchPinned(t *testing.T) {
	pinned := []struct {
		model, policy string
		max           int
		probes        string
	}{
		{"resnet200", "fast-only", 80, "1024x 512x 256x 128x 64+ 96x 80+ 88x 84x 82x 81x"},
		{"resnet200", "vdnn", 134, "1024x 512x 256x 128+ 192x 160x 144x 136x 132+ 134+ 135x"},
		{"resnet200", "swapadvisor", 1024, "1024+"},
		{"resnet200", "autotm", 1024, "1024+"},
		{"resnet200", "capuchin", 1024, "1024+"},
		{"resnet200", "sentinel-gpu", 1024, "1024+"},
		{"bert-large", "fast-only", 24, "1024x 512x 256x 128x 64x 32x 16+ 24+ 28x 26x 25x"},
		{"bert-large", "swapadvisor", 787, "1024x 512+ 768+ 896x 832x 800x 784+ 792x 788x 786+ 787+"},
		{"bert-large", "autotm", 784, "1024x 512+ 768+ 896x 832x 800x 784+ 792x 788x 786x 785x"},
		{"bert-large", "capuchin", 791, "1024x 512+ 768+ 896x 832x 800x 784+ 792x 788+ 790+ 791+"},
		{"bert-large", "sentinel-gpu", 786, "1024x 512+ 768+ 896x 832x 800x 784+ 792x 788x 786+ 787x"},
	}
	var builds atomic.Int64
	probes := 0
	for _, modelName := range []string{"resnet200", "bert-large"} {
		var policies []string
		var want []int
		for i, p := range pinned {
			if p.model == modelName {
				policies = append(policies, p.policy)
				want = append(want, i)
			}
		}
		seqs := make([][]string, len(policies))
		// Per search: the largest fitting and smallest non-fitting batch
		// probed, 0 while none.
		maxFit := make([]int, len(policies))
		minMiss := make([]int, len(policies))
		logged := func(ps []gpu.Probe, fit func(i int) (bool, error)) ([]bool, error) {
			verdicts := make([]bool, len(ps))
			for i, p := range ps {
				ok, err := fit(i)
				if err != nil {
					return nil, err
				}
				verdicts[i] = ok
				mark := "x"
				if ok {
					mark = "+"
					maxFit[p.Search] = max(maxFit[p.Search], p.Batch)
				} else if minMiss[p.Search] == 0 || p.Batch < minMiss[p.Search] {
					minMiss[p.Search] = p.Batch
				}
				seqs[p.Search] = append(seqs[p.Search], fmt.Sprintf("%d%s", p.Batch, mark))
				probes++
			}
			return verdicts, nil
		}
		maxes, err := gpu.Lockstep(countingBuild(modelName, &builds), memsys.GPUHM(),
			factories(t, policies), 1<<10, logged)
		if err != nil {
			t.Fatal(err)
		}
		for i, pi := range want {
			p := pinned[pi]
			if maxes[i] != p.max {
				t.Errorf("%s %s: max %d, pinned %d", p.model, p.policy, maxes[i], p.max)
			}
			if got := strings.Join(seqs[i], " "); got != p.probes {
				t.Errorf("%s %s probes:\n got  %s\n want %s", p.model, p.policy, got, p.probes)
			}
			if minMiss[i] != 0 && maxFit[i] >= minMiss[i] {
				t.Errorf("%s %s: batch %d fits but %d does not", p.model, p.policy, maxFit[i], minMiss[i])
			}
		}
	}
	if probes != 81 || builds.Load() != 41 {
		t.Errorf("%d probes over %d graph builds, want 81 over 41", probes, builds.Load())
	}
}

// TestLockstepProbesShareGraphConcurrently runs each round's probes of
// several policies concurrently on the one graph the round built for
// their batch. Under -race this checks that runtimes and policies only
// read the graph. The fast tier is half of resnet32's peak at batch 8, so
// four of the seven policies fail at the limit and search down together:
// every round runs at least four probes on one shared graph.
func TestLockstepProbesShareGraphConcurrently(t *testing.T) {
	policies := []string{"fast-only", "um", "vdnn", "swapadvisor", "autotm", "capuchin", "sentinel-gpu"}
	var rounds []string
	concurrent := func(ps []gpu.Probe, fit func(i int) (bool, error)) ([]bool, error) {
		rounds = append(rounds, fmt.Sprintf("%dx%d", len(ps), ps[0].Batch))
		verdicts := make([]bool, len(ps))
		errs := make([]error, len(ps))
		var wg sync.WaitGroup
		for i := range ps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				verdicts[i], errs[i] = fit(i)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return verdicts, nil
	}
	g, err := model.Build("resnet32", 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.GPUHM().WithFastSize(g.PeakMemory() / 2)
	var builds atomic.Int64
	maxes, err := gpu.Lockstep(countingBuild("resnet32", &builds), spec,
		factories(t, policies), 8, concurrent)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(maxes), "[2 8 2 2 8 2 8]"; got != want {
		t.Errorf("max batches %s, want %s", got, want)
	}
	// Four rounds over four graph builds: each round's probes share the
	// one graph of its batch (8, 4, 2, then 3).
	if got, want := strings.Join(rounds, " "), "7x8 4x4 4x2 4x3"; got != want {
		t.Errorf("rounds (probes x batch) %s, want %s", got, want)
	}
	if n := builds.Load(); n != 4 {
		t.Errorf("%d graph builds, want 4", n)
	}
}

// TestMaxBatchLimitNotPowerOfTwo pins the search at a limit that is not a
// power of two: limit 128 finds 80, so limit 100 must too.
func TestMaxBatchLimitNotPowerOfTwo(t *testing.T) {
	fastOnly := func() exec.Policy { return baseline.NewFastOnly() }
	for _, limit := range []int{100, 128} {
		mb, err := gpu.MaxBatch("resnet200", memsys.GPUHM(), fastOnly, limit)
		if err != nil {
			t.Fatal(err)
		}
		if mb != 80 {
			t.Errorf("limit %d: max batch %d, want 80", limit, mb)
		}
	}
}
