package experiment

import (
	"fmt"

	"sentinel/internal/baseline"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
)

// oom is how a table renders the nil runAll slot of a cell that ran out
// of fast memory: the paper reports such configurations as a result.
const oom = "oom"

// refPolicies is the Fig. 7 policy set: slow-only baseline, the three
// migrators, and the fast-only reference.
var refPolicies = []string{"slow-only", "ial", "autotm", "sentinel", "fast-only"}

// supports reports whether policy can train the model: vDNN offloads
// convolutional feature maps (baseline.Supported); every other policy
// runs everything. Unsupported combinations render "n/a".
func supports(policy, modelName string) bool {
	return policy != "vdnn" || baseline.Supported(modelName)
}

// compRow is one row of a speedup comparison: a model at one batch on
// one machine. peak sizes the fast-only reference.
type compRow struct {
	label []string
	model string
	batch int
	spec  memsys.Spec
	peak  int64
}

// smallBatchRows is one row per EvalSet model at its small batch.
func smallBatchRows() []compRow {
	var rows []compRow
	for _, m := range model.EvalSet() {
		rows = append(rows, compRow{model: m.Name, batch: m.SmallBatch})
	}
	return rows
}

// sized places every row on platform with fast memory at fastPct of the
// model's peak, labelled "model (b=batch)".
func (o Options) sized(platform memsys.Spec, rows []compRow) error {
	for i := range rows {
		r := &rows[i]
		spec, peak, err := o.fastSized(platform, r.model, r.batch)
		if err != nil {
			return err
		}
		r.spec, r.peak = spec, peak
		r.label = []string{fmt.Sprintf("%s (b=%d)", r.model, r.batch)}
	}
	return nil
}

// gpuRows is one row per GPUEvalSet model and batch from Batches[from:],
// on the full device of spec.
func gpuRows(spec memsys.Spec, from int) []compRow {
	var rows []compRow
	for _, m := range model.GPUEvalSet() {
		for _, b := range m.Batches[from:] {
			rows = append(rows, compRow{label: []string{m.Name, fmt.Sprint(b)},
				model: m.Name, batch: b, spec: spec})
		}
	}
	return rows
}

// cell is the row's simulation cell for one policy. The static
// placements reach steady state at once and run two steps; fast-only is
// the reference machine, the row's platform with 2×peak fast memory.
func (r compRow) cell(o Options, policy string) cellRun {
	c := cellRun{model: r.model, batch: r.batch, spec: r.spec, policy: policy, steps: o.steps()}
	switch policy {
	case "fast-only":
		c.spec = r.spec.WithFastSize(2 * r.peak)
		c.steps = 2
	case "slow-only", "first-touch":
		c.steps = 2
	}
	return c
}

// compare runs a speedup comparison — Figs. 7, 8 and 12 and their
// extras — as one runAll batch and adds one row per compRow to t: the
// row's label, then every policy after the baseline (policies[0]) as its
// speedup over the baseline's steady step, "n/a" where the policy does
// not support the model, "oom" where the cell ran out of fast memory.
// An out-of-memory baseline fails the table: nothing renders against it.
//
// It returns each row's runs in policy order, nil for "n/a" and "oom"
// cells, for columns beyond the speedups.
func (o Options) compare(t *Table, rows []compRow, policies []string) ([][]*metrics.RunStats, error) {
	var cells []cellRun
	for _, r := range rows {
		for _, p := range policies {
			if supports(p, r.model) {
				cells = append(cells, r.cell(o, p))
			}
		}
	}
	runs, err := o.runAll(cells)
	if err != nil {
		return nil, err
	}
	grid := make([][]*metrics.RunStats, len(rows))
	for i, r := range rows {
		for _, p := range policies {
			var run *metrics.RunStats
			if supports(p, r.model) {
				run, runs = runs[0], runs[1:]
			}
			grid[i] = append(grid[i], run)
		}
		if grid[i][0] == nil {
			return nil, fmt.Errorf("%s: %w", o.withChaos(r.cell(o, policies[0])).label(), exec.ErrOOM)
		}
		base := grid[i][0].SteadyStepTime()
		row := append([]string{}, r.label...)
		for k, p := range policies[1:] {
			switch run := grid[i][k+1]; {
			case !supports(p, r.model):
				row = append(row, "n/a")
			case run == nil:
				row = append(row, oom)
			default:
				row = append(row, speedup(base, run.SteadyStepTime()))
			}
		}
		t.AddRow(row...)
	}
	return grid, nil
}
