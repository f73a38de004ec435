package experiment

import (
	"fmt"

	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/simtime"
)

// gpuPolicies is the Figure 12 policy set, worst to best in the paper.
var gpuPolicies = []string{"um", "vdnn", "autotm", "swapadvisor", "capuchin", "sentinel-gpu"}

// Fig12 measures GPU training throughput for five models at three batch
// sizes each, normalized to Unified Memory (paper Fig. 12).
func Fig12(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "GPU training throughput normalized to Unified Memory",
		Header: append([]string{"model", "batch"}, gpuPolicies[1:]...),
	}
	from := 0
	if o.Quick {
		from = 2
	}
	if _, err := o.compare(t, gpuRows(memsys.GPUHM(), from), gpuPolicies); err != nil {
		return nil, err
	}
	t.AddNote("cells are throughput relative to UM (higher is better); paper: sentinel 1.1-7.8x over UM, ~2x over vDNN, 65%% over SwapAdvisor, 17%% over AutoTM, 16%% over Capuchin")
	return t, nil
}

// Fig13 breaks one step down into exposed migration and recomputation per
// policy, plus the Sentinel ablations (paper Fig. 13).
func Fig13(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "per-step breakdown at the largest batch: exposed migration and recomputation",
		Header: []string{"model", "policy", "step time", "exposed migration", "recompute", "migrated"},
	}
	spec := memsys.GPUHM()
	policies := append([]string{}, gpuPolicies[1:]...)
	policies = append(policies, "sentinel-gpu-direct", "sentinel-gpu-detmi")
	models := model.GPUEvalSet()
	if o.Quick {
		models = models[:2]
	}
	var cells []cellRun
	for _, m := range models {
		for _, p := range policies {
			if supports(p, m.Name) {
				cells = append(cells, cellRun{model: m.Name, batch: m.Batches[2], spec: spec, policy: p, steps: o.steps()})
			}
		}
	}
	runs, err := o.runAll(cells)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		run := runs[i]
		if run == nil {
			t.AddRow(c.model, c.policy, oom, "", "", "")
			continue
		}
		st := run.SteadyStep()
		t.AddRow(c.model, c.policy, st.Duration.String(),
			fmt.Sprintf("%s (%s)", st.StallTime, pctOf(st.StallTime, st.Duration)),
			fmt.Sprintf("%s (%s)", st.RecomputeTime, pctOf(st.RecomputeTime, st.Duration)),
			simtime.Bytes(st.MigratedTotal()))
	}
	t.AddNote("sentinel-gpu-direct = no migration intervals, no reserved pool, no co-allocation; sentinel-gpu-detmi = model-chosen interval only (Fig. 13's 'w/ det. MI')")
	return t, nil
}

// Table5 finds the maximum trainable batch size per policy on the V100
// (paper Table V; Sentinel 4.18x over plain TensorFlow on average).
func Table5(o Options) (*Table, error) {
	t := &Table{
		ID:     "table5",
		Title:  "maximum batch size on 16 GiB GPU memory",
		Header: []string{"model", "tensorflow", "vdnn", "swapadvisor", "autotm", "capuchin", "sentinel-gpu"},
	}
	spec := memsys.GPUHM()
	limit := BatchLimit
	if o.Quick {
		limit = 1 << 10
	}
	policies := []string{"fast-only", "vdnn", "swapadvisor", "autotm", "capuchin", "sentinel-gpu"}
	models := model.GPUEvalSet()
	if o.Quick {
		models = models[:2]
	}
	// One labelled cell per model: a lockstep max-batch search over its
	// policies. Unsupported vdnn combinations are skipped and render
	// "n/a", as does every policy of a quarantined search.
	var tfSum, sentinelSum float64
	for _, m := range models {
		var searched []string
		for _, p := range policies {
			if supports(p, m.Name) {
				searched = append(searched, p)
			}
		}
		name := func() (string, []int) { return fmt.Sprintf("max-batch/%s/%s", m.Name, spec.Name), nil }
		maxes, err := runCell(o, name, func() ([]int, error) {
			return o.maxBatches(m.Name, spec, searched, limit)
		})
		if err != nil {
			return nil, err
		}
		found := make(map[string]int, len(searched))
		for i, n := range maxes {
			found[searched[i]] = n
		}
		row := []string{m.Name}
		for _, p := range policies {
			if max, ok := found[p]; ok {
				row = append(row, fmt.Sprintf("%d", max))
			} else {
				row = append(row, "n/a")
			}
		}
		if tf := found["fast-only"]; tf > 0 {
			tfSum += 1
			sentinelSum += float64(found["sentinel-gpu"]) / float64(tf)
		}
		t.AddRow(row...)
	}
	if tfSum > 0 {
		t.AddNote("sentinel-gpu trains %.2fx larger batches than plain TensorFlow on average (paper: 4.18x)", sentinelSum/tfSum)
	}
	return t, nil
}

// Fig12A100 is a what-if extra beyond the paper: the Fig. 12 comparison on
// an A100-class machine (2.5x the device memory, PCIe 4.0). The faster
// interconnect narrows every migrator's gap to UM — Sentinel's advantage
// shrinks exactly where the paper's analysis predicts (its win comes from
// hiding transfer time; with less to hide, less to win).
func Fig12A100(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig12-a100",
		Title:  "GPU training throughput normalized to Unified Memory (A100-class machine)",
		Header: append([]string{"model", "batch"}, gpuPolicies[1:]...),
	}
	if _, err := o.compare(t, gpuRows(memsys.GPUHM_A100(), 2), gpuPolicies); err != nil {
		return nil, err
	}
	t.AddNote("not in the paper: a faster interconnect and larger device memory compress the spread")
	return t, nil
}
