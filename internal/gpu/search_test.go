package gpu

import (
	"fmt"
	"sentinel/internal/core"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// refSearch is the reference max-batch search, the one Table V ran before
// the search went top-down: it doubles from batch 1 while probes fit, then
// bisects between the largest batch that fit and the smallest that did
// not, or limit+1 when doubling passed the limit without a failure. When
// fitting is monotone in batch, Lockstep must find the same maximum.
func refSearch(limit int, fit func(batch int) (bool, error)) (int, error) {
	lo, hi := 0, 0
	for hi == 0 {
		b := max(1, 2*lo)
		if b > limit {
			hi = limit + 1
			break
		}
		ok, err := fit(b)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = b
		} else {
			hi = b
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := fit(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// table5Policies are Table V's policies that support modelName, in the
// table's column order, with their factories.
func table5Policies(modelName string) ([]string, []func() exec.Policy) {
	all := []struct {
		name string
		new  func() exec.Policy
	}{
		{"fast-only", func() exec.Policy { return baseline.NewFastOnly() }},
		{"vdnn", func() exec.Policy { return baseline.NewVDNN() }},
		{"swapadvisor", func() exec.Policy { return baseline.NewSwapAdvisor() }},
		{"autotm", func() exec.Policy { return baseline.NewAutoTM() }},
		{"capuchin", func() exec.Policy { return baseline.NewCapuchin() }},
		{"sentinel-gpu", func() exec.Policy { return core.NewDefault() }},
	}
	var names []string
	var factories []func() exec.Policy
	for _, p := range all {
		if p.name != "vdnn" || baseline.Supported(modelName) {
			names = append(names, p.name)
			factories = append(factories, p.new)
		}
	}
	return names, factories
}

// TestLockstepMatchesRefSearch requires Lockstep's maxima to equal
// refSearch's for every GPU evaluation model and every Table V policy at
// quick Table V's limit, and for resnet200 and bert-large at a limit that
// is not a power of two and at twice quick Table V's. Both searches ask
// the same fits predicate, so refSearch reuses every verdict Lockstep
// already obtained.
func TestLockstepMatchesRefSearch(t *testing.T) {
	type cell struct {
		model string
		limit int
	}
	var cells []cell
	for _, m := range model.GPUEvalSet() {
		cells = append(cells, cell{m.Name, 1 << 10})
	}
	for _, name := range []string{"resnet200", "bert-large"} {
		cells = append(cells, cell{name, 100}, cell{name, 2048})
	}
	spec := memsys.GPUHM()
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%d", c.model, c.limit), func(t *testing.T) {
			t.Parallel()
			policies, factories := table5Policies(c.model)
			type key struct{ search, batch int }
			verdicts := map[key]bool{}
			logged := func(ps []Probe, fit func(i int) (bool, error)) ([]bool, error) {
				out, err := sequential(ps, fit)
				if err != nil {
					return nil, err
				}
				for i, p := range ps {
					verdicts[key{p.Search, p.Batch}] = out[i]
				}
				return out, nil
			}
			build := func(batch int) (*graph.Graph, error) { return model.Build(c.model, batch) }
			maxes, err := Lockstep(build, spec, factories, c.limit, logged)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range policies {
				want, err := refSearch(c.limit, func(batch int) (bool, error) {
					if ok, seen := verdicts[key{i, batch}]; seen {
						return ok, nil
					}
					g, err := build(batch)
					if err != nil {
						return false, err
					}
					return fits(g, spec, factories[i]())
				})
				if err != nil {
					t.Fatal(err)
				}
				if maxes[i] != want {
					t.Errorf("%s: Lockstep max %d, refSearch %d", name, maxes[i], want)
				}
			}
		})
	}
}
