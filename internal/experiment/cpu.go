package experiment

import (
	"errors"
	"fmt"

	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
)

// fastPct is the paper's standard fast-memory budget: 20% of peak.
const fastPct = 20

// Fig5 sweeps the migration interval length for ResNet-32 on the Optane
// platform (paper Fig. 5: best around 8, ~21% variance over 5..11).
func Fig5(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "step time vs migration interval length (resnet32, Optane HM, fast = 20% of peak)",
		Header: []string{"MIL", "step time", "vs best"},
	}
	spec, _, err := o.fastSized(memsys.OptaneHM(), "resnet32", 128)
	if err != nil {
		return nil, err
	}
	mils := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if o.Quick {
		mils = []int{1, 3, 5, 8, 11}
	}
	cells := make([]cellRun, len(mils))
	for i, mil := range mils {
		cells[i] = cellRun{model: "resnet32", batch: 128, spec: spec,
			policy: "sentinel", steps: o.steps(), mil: mil}
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	best := simtime.Duration(0)
	for _, run := range runs {
		if d := run.SteadyStepTime(); best == 0 || d < best {
			best = d
		}
	}
	for i, mil := range mils {
		d := runs[i].SteadyStepTime()
		t.AddRow(fmt.Sprintf("%d", mil), d.String(),
			fmt.Sprintf("+%.1f%%", 100*(float64(d)/float64(best)-1)))
	}
	// Report what the performance model would pick.
	g, err := model.BuildShared("resnet32", 128)
	if err != nil {
		return nil, err
	}
	s := core.NewDefault()
	rt, err := exec.NewRuntime(g, spec, s)
	if err != nil {
		return nil, err
	}
	if _, err := rt.RunSteps(2); err != nil {
		return nil, err
	}
	t.AddNote("performance model (Eq. 1 + Eq. 2) selects MIL=%d without trying any step", s.Plan().MIL)
	return t, nil
}

// Fig7 compares IAL, AutoTM, and Sentinel against slow-memory-only with
// small batches and fast = 20% of peak (paper Fig. 7).
func Fig7(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "speedup over slow-only (small batch, fast = 20% of peak)",
		Header: []string{"model", "ial", "autotm", "sentinel", "fast-only (ref)", "sentinel vs fast"},
	}
	rows := smallBatchRows()
	if err := o.sized(memsys.OptaneHM(), rows); err != nil {
		return nil, err
	}
	grid, err := o.compare(t, rows, refPolicies)
	if err != nil {
		return nil, err
	}
	var sentinelGapSum float64
	var n int
	for i, runs := range grid {
		sentinel, fast := runs[3], runs[4]
		if sentinel == nil || fast == nil {
			t.Rows[i] = append(t.Rows[i], oom)
			continue
		}
		gap := float64(sentinel.SteadyStepTime())/float64(fast.SteadyStepTime()) - 1
		sentinelGapSum += gap
		n++
		t.Rows[i] = append(t.Rows[i], fmt.Sprintf("+%.1f%%", 100*gap))
	}
	t.AddNote("mean sentinel gap vs fast-only: %.1f%% (paper: 9%% on average at 20%% fast memory)", 100*sentinelGapSum/float64(n))
	return t, nil
}

// Fig8 compares first-touch NUMA, Memory Mode, AutoTM, and Sentinel with
// large batches, normalized to first-touch (paper Fig. 8).
func Fig8(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "large-batch speedup over first-touch NUMA (fast = 20% of peak)",
		Header: []string{"model", "memory-mode", "autotm", "sentinel"},
	}
	var rows []compRow
	for _, m := range model.EvalSet() {
		batch := m.LargeBatch
		if o.Quick {
			batch = m.SmallBatch * 2
		}
		rows = append(rows, compRow{model: m.Name, batch: batch})
	}
	if err := o.sized(memsys.OptaneHM(), rows); err != nil {
		return nil, err
	}
	for i := range rows {
		// LSTM's paper configuration fits entirely in fast memory at
		// large batch; keep that case by giving it its platform-default
		// fast size.
		if r := &rows[i]; r.model == "lstm" {
			r.spec = memsys.OptaneHM()
			if r.spec.Fast.Size < r.peak*2 {
				r.spec = r.spec.WithFastSize(r.peak * 2)
			}
		}
	}
	if _, err := o.compare(t, rows, []string{"first-touch", "memory-mode", "autotm", "sentinel"}); err != nil {
		return nil, err
	}
	t.AddNote("paper: sentinel 1.7x over first-touch, 1.2x over Memory Mode, 1.1x over AutoTM on capacity-bound models; ~1.0x when the model fits (LSTM)")
	return t, nil
}

// Fig9 compares the steady step's per-tier memory bandwidth for IAL and
// Sentinel on ResNet-32 (paper Fig. 9: Sentinel drives ~7.3x more
// fast-memory bandwidth); Fig9Series has the series over time.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "memory bandwidth during resnet32 training (fast = 20% of peak)",
		Header: []string{"policy", "fast GB/s", "slow GB/s", "fast bytes/step", "slow bytes/step"},
	}
	spec, _, err := o.fastSized(memsys.OptaneHM(), "resnet32", 128)
	if err != nil {
		return nil, err
	}
	pols := []string{"ial", "sentinel"}
	cells := make([]cellRun, len(pols))
	for i, p := range pols {
		cells[i] = cellRun{model: "resnet32", batch: 128, spec: spec,
			policy: p, steps: o.steps()}
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	var ialFast, sentinelFast float64
	for i, p := range pols {
		st := runs[i].SteadyStep()
		fastBW := float64(st.FastBytes) / st.Duration.Seconds()
		slowBW := float64(st.SlowBytes) / st.Duration.Seconds()
		if p == "ial" {
			ialFast = fastBW
		} else {
			sentinelFast = fastBW
		}
		t.AddRow(p, fmt.Sprintf("%.1f", fastBW/1e9), fmt.Sprintf("%.1f", slowBW/1e9),
			simtime.Bytes(st.FastBytes), simtime.Bytes(st.SlowBytes))
	}
	if ialFast > 0 {
		t.AddNote("sentinel fast-memory bandwidth is %.1fx IAL's (paper: 7.3x)", sentinelFast/ialFast)
	}
	return t, nil
}

// Fig10 sweeps the fast memory size from 20%% to 60%% of peak (paper
// Fig. 10: little sensitivity; no loss at 60%).
func Fig10(o Options) (*Table, error) {
	pcts := []float64{20, 30, 40, 50, 60}
	if o.Quick {
		pcts = []float64{20, 40, 60}
	}
	header := []string{"model"}
	for _, p := range pcts {
		header = append(header, fmt.Sprintf("%.0f%%", p))
	}
	t := &Table{
		ID:     "fig10",
		Title:  "sentinel step time vs fast memory size (normalized to fast-only)",
		Header: header,
	}
	ms := model.EvalSet()
	// The per-model fast-only baseline is one cell, hoisted out of the
	// capacity-percentage grid: each model's baseline runs exactly once
	// no matter how many percentages the grid sweeps, cache or no cache.
	stride := 1 + len(pcts)
	var cells []cellRun
	for _, m := range ms {
		peak, err := o.peak(m.Name, m.SmallBatch)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cellRun{model: m.Name, batch: m.SmallBatch,
			spec: memsys.OptaneHM().WithFastSize(2 * peak), policy: "fast-only", steps: 2})
		for _, pct := range pcts {
			cells = append(cells, cellRun{model: m.Name, batch: m.SmallBatch,
				spec:   memsys.OptaneHM().WithFastSize(int64(pct / 100 * float64(peak))),
				policy: "sentinel", steps: o.steps()})
		}
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		group := runs[i*stride : (i+1)*stride]
		base := group[0].SteadyStepTime()
		row := []string{m.Name}
		for k := 1; k < stride; k++ {
			row = append(row, pctOf(group[k].SteadyStepTime(), base))
		}
		t.AddRow(row...)
	}
	t.AddNote("cells are step time as %% of fast-memory-only (100%% = parity)")
	return t, nil
}

// Fig11 reports, for each ResNet variant, the minimum fast memory size at
// which Sentinel matches fast-only within 5% (paper Fig. 11). Each variant
// is one labelled cell; the capacity search inside a cell is sequential
// because each probe depends on the previous one stopping the search.
func Fig11(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "minimum fast memory for fast-only parity across ResNet variants",
		Header: []string{"model", "peak memory", "min fast size", "fraction of peak"},
	}
	variants := []struct {
		depth, batch int
	}{{20, 128}, {32, 128}, {44, 128}, {56, 128}, {50, 32}, {101, 32}, {152, 32}}
	if o.Quick {
		variants = variants[:3]
	}
	rows, err := runCells(o, len(variants), func(i int) ([]string, error) {
		v := variants[i]
		name := fmt.Sprintf("resnet%d", v.depth)
		variant := fmt.Sprintf("%s (b=%d)", name, v.batch)
		cell := func() (string, []string) {
			return fmt.Sprintf("min-fast/%s/b%d", name, v.batch), naRow(len(t.Header), variant)
		}
		return runCell(o, cell, func() ([]string, error) {
			peak, err := o.peak(name, v.batch)
			if err != nil {
				return nil, err
			}
			fast, err := o.run(o.withChaos(cellRun{model: name, batch: v.batch,
				spec: memsys.OptaneHM().WithFastSize(2 * peak), policy: "fast-only", steps: 2}))
			if err != nil {
				return nil, err
			}
			target := fast.SteadyStepTime() * 105 / 100
			row := []string{variant, simtime.Bytes(peak), "n/a", "n/a"}
			for pct := 15.0; pct <= 100; pct += 5 {
				size := int64(pct / 100 * float64(peak))
				run, err := o.run(o.withChaos(cellRun{model: name, batch: v.batch,
					spec: memsys.OptaneHM().WithFastSize(size), policy: "sentinel", steps: o.steps()}))
				if errors.Is(err, exec.ErrOOM) {
					continue // does not fit at this size: try a larger one
				}
				if err != nil {
					return nil, err
				}
				if run.SteadyStepTime() <= target {
					row[2], row[3] = simtime.Bytes(size), fmt.Sprintf("%.0f%%", pct)
					break
				}
			}
			return row, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("paper: peak memory grows much faster across variants than the fast memory Sentinel needs")
	return t, nil
}

// Table3 reports the per-model profiling overhead accounting (paper
// Table III).
func Table3(o Options) (*Table, error) {
	t := &Table{
		ID:    "table3",
		Title: "models, peak memory, and Sentinel overhead accounting",
		Header: []string{"model", "batch", "layers", "tensors", "peak memory",
			"overhead steps", "profiled-step slowdown", "memory overhead"},
	}
	ms := model.EvalSet()
	rows, err := runCells(o, len(ms), func(i int) ([]string, error) {
		m := ms[i]
		batch := fmt.Sprintf("%d", m.SmallBatch)
		name := func() (string, []string) {
			return fmt.Sprintf("overhead/%s/b%d", m.Name, m.SmallBatch), naRow(len(t.Header), m.Name, batch)
		}
		return runCell(o, name, func() ([]string, error) {
			// This cell needs the live policy instance (OverheadSteps),
			// so it runs the runtime directly instead of a cached cellRun.
			g, err := model.BuildShared(m.Name, m.SmallBatch)
			if err != nil {
				return nil, err
			}
			spec, _, err := o.fastSized(memsys.OptaneHM(), m.Name, m.SmallBatch)
			if err != nil {
				return nil, err
			}
			s := core.NewDefault()
			rt, err := exec.NewRuntime(g, spec, s)
			if err != nil {
				return nil, err
			}
			run, err := rt.RunSteps(o.steps())
			if err != nil {
				return nil, err
			}
			profStep := run.Steps[0]
			steady := run.SteadyStepTime()
			slowdown := float64(profStep.Duration) / float64(steady)
			// Memory overhead of page-aligned profiling over the model's
			// true peak concurrent footprint: every tensor is rounded up
			// to whole pages during the profiling step.
			memOverhead := float64(profStep.PeakMapped)/float64(g.PeakMemory()) - 1
			if memOverhead < 0 {
				memOverhead = 0
			}
			return []string{m.Name, batch,
				fmt.Sprintf("%d", g.NumLayers), fmt.Sprintf("%d", len(g.Tensors)),
				simtime.Bytes(g.PeakMemory()),
				fmt.Sprintf("%d", s.OverheadSteps()),
				fmt.Sprintf("%.1fx", slowdown),
				fmt.Sprintf("%.1f%%", 100*memOverhead)}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("paper: 1.8 overhead steps on average, profiled step up to 5x slower, memory overhead at most 2.4%%")
	return t, nil
}

// Table4 reports migrated bytes per training step for IAL, AutoTM, and
// Sentinel (paper Table IV: Sentinel migrates the most — 85% more than
// IAL, 32% more than AutoTM — and hides it).
func Table4(o Options) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "migrated bytes per training step (small batch, fast = 20% of peak)",
		Header: []string{"model", "ial", "autotm", "sentinel"},
	}
	ms := model.EvalSet()
	pols := []string{"ial", "autotm", "sentinel"}
	var cells []cellRun
	for _, m := range ms {
		spec, _, err := o.fastSized(memsys.OptaneHM(), m.Name, m.SmallBatch)
		if err != nil {
			return nil, err
		}
		for _, p := range pols {
			cells = append(cells, cellRun{model: m.Name, batch: m.SmallBatch,
				spec: spec, policy: p, steps: o.steps()})
		}
	}
	runs, err := o.runFit(cells)
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		row := []string{m.Name}
		for k := 0; k < len(pols); k++ {
			row = append(row, simtime.Bytes(runs[i*len(pols)+k].SteadyStep().MigratedTotal()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Characterization reproduces the Sec. III observations for every model.
func Characterization(o Options) (*Table, error) {
	t := &Table{
		ID:    "characterization",
		Title: "tensor population and page-level false sharing (Sec. III)",
		Header: []string{"model", "tensors", "short-lived", "sub-page among short",
			"hot set (>100 accesses)", "false-sharing bytes", "profiled-step slowdown"},
	}
	ms := model.EvalSet()
	rows, err := runCells(o, len(ms), func(i int) ([]string, error) {
		m := ms[i]
		name := func() (string, []string) {
			return fmt.Sprintf("characterize/%s/b%d", m.Name, m.SmallBatch), naRow(len(t.Header), m.Name)
		}
		return runCell(o, name, func() ([]string, error) {
			c, err := o.characterize(m.Name, m.SmallBatch, memsys.OptaneHM())
			if err != nil {
				return nil, err
			}
			p, err := o.collectProfile(m.Name, m.SmallBatch, memsys.OptaneHM())
			if err != nil {
				return nil, err
			}
			slowdown := float64(p.StepTime) / float64(p.StepTime-p.FaultTime)
			return []string{m.Name,
				fmt.Sprintf("%d", c.Tensors),
				fmt.Sprintf("%.1f%%", 100*c.ShortLivedFraction()),
				fmt.Sprintf("%.1f%%", 100*c.SmallFraction()),
				simtime.Bytes(c.TensorBytes[profile.BucketHot]),
				simtime.Bytes(c.FalseSharingBytes),
				fmt.Sprintf("%.1fx", slowdown)}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("paper (resnet32): 92%% of tensors short-lived, 98%% of those sub-page, hot set ~4 MB")
	return t, nil
}

// Fig7Extended runs the Fig. 7 comparison over the extended model zoo —
// architectures beyond the paper's five (VGG, Inception, U-Net, GPT-2) —
// to show the result shape generalizes.
func Fig7Extended(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig7-extended",
		Title:  "speedup over slow-only on the extended zoo (fast = 20% of peak)",
		Header: []string{"model", "ial", "autotm", "sentinel", "fast-only (ref)"},
	}
	rows := []compRow{
		{model: "vgg16", batch: 32}, {model: "inception", batch: 32}, {model: "unet", batch: 8},
		{model: "gpt2-small", batch: 4}, {model: "resnet110", batch: 64}, {model: "resnet152", batch: 16},
	}
	if o.Quick {
		rows = rows[:3]
	}
	if err := o.sized(memsys.OptaneHM(), rows); err != nil {
		return nil, err
	}
	if _, err := o.compare(t, rows, refPolicies); err != nil {
		return nil, err
	}
	t.AddNote("not in the paper: the same ordering holds on architectures the paper never evaluated")
	return t, nil
}

// Fig7CXL is a what-if extra beyond the paper: the Fig. 7 comparison with
// a CXL memory expander as the slow tier instead of Optane PMM. CXL's much
// better write bandwidth narrows every gap — slow-only is closer to
// fast-only, and Sentinel converges to parity.
func Fig7CXL(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig7-cxl",
		Title:  "speedup over slow-only with CXL-attached slow memory (fast = 20% of peak)",
		Header: []string{"model", "ial", "autotm", "sentinel", "fast-only (ref)"},
	}
	rows := smallBatchRows()
	if err := o.sized(memsys.CXLHM(), rows); err != nil {
		return nil, err
	}
	if _, err := o.compare(t, rows, refPolicies); err != nil {
		return nil, err
	}
	t.AddNote("not in the paper: CXL's better write path compresses the spread the paper measured on Optane")
	return t, nil
}
