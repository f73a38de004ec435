package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/experiment"
	"sentinel/internal/graph"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/profile"
)

// batchPoints bounds the distinct batch sizes per model, and with them
// the graphs the process memoizes for cold-plan (up to ~1 MB each).
const batchPoints = 8

// Every autotmEvery-th CPU cell and every swapEvery-th GPU cell of a
// traced run also times the baseline planner on the same input: AutoTM's
// ILP takes tens of milliseconds, so it is sampled.
const (
	autotmEvery = 20
	swapEvery   = 10
)

// coldCombo is one model and platform of cold-plan's cells.
type coldCombo struct {
	model  string
	lo, hi int // batch range
	gpu    bool
}

// coldCombos are the paper's CPU models at half their small batch up to
// their large batch, and its GPU models at half their smallest batch up
// to their largest.
func coldCombos() []coldCombo {
	var cs []coldCombo
	for _, m := range model.EvalSet() {
		cs = append(cs, coldCombo{model: m.Name, lo: m.SmallBatch / 2, hi: m.LargeBatch})
	}
	for _, m := range model.GPUEvalSet() {
		cs = append(cs, coldCombo{model: m.Name, lo: m.Batches[0] / 2, hi: m.Batches[2], gpu: true})
	}
	return cs
}

// coldCells generates n Sentinel cells, the same share for every model
// and platform. CPU cells run Sentinel on Optane with the fast tier at
// 10-90% of peak; GPU cells run Sentinel-GPU on the GPU preset's fast
// tier, since a fraction of peak would not hold the working set. Every
// seed uses the same batches and fast-tier sizes, evenly spread over
// their ranges; the seed pairs them into cells and orders the cells. A
// seed that drew its own sizes would change how much work a run does:
// cells of one model cost several times as much at some sizes as at
// others.
func coldCells(seed int64, n int) []experiment.CellRequest {
	rng := rand.New(rand.NewSource(seed))
	combos := coldCombos()
	var cells []experiment.CellRequest
	for ci, c := range combos {
		per := n / len(combos)
		if ci < n%len(combos) {
			per++
		}
		batches := midpoints(float64(c.lo), float64(c.hi), batchPoints)
		pcts := midpoints(10, 90, per)
		order := rng.Perm(per)
		for k := 0; k < per; k++ {
			req := experiment.CellRequest{Model: c.model, Batch: int(batches[k%batchPoints]),
				Policy: "sentinel", Steps: 3}
			if c.gpu {
				req.Policy, req.Platform = "sentinel-gpu", "gpu"
			} else {
				req.FastPct = math.Round(100*pcts[order[k]]) / 100
			}
			cells = append(cells, req)
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// midpoints returns the midpoints of k equal slices of [lo, hi).
func midpoints(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for j := range out {
		out[j] = lo + (float64(j)+0.5)*(hi-lo)/float64(k)
	}
	return out
}

// prewarmGraphs builds every graph the requests use into the process's
// shared graph memo, so that the first segment does not pay for graphs
// that later segments find built.
func prewarmGraphs(modelBatch func(i int) (string, int), n int) error {
	for i := 0; i < n; i++ {
		name, batch := modelBatch(i)
		if _, err := model.BuildShared(name, batch); err != nil {
			return err
		}
	}
	return nil
}

// replayed is one cell replayed through the public layer calls, with
// each call's CPU time.
type replayed struct {
	build, collect, plan, setup, profiled time.Duration
	managed                               []time.Duration
	probe                                 time.Duration // baseline planner set-up, when probed
	faults, intervals, ops                int
	digest                                uint64
}

// runtime is the part of the cell experiment.RunCell runs: runtime
// set-up and every step. RunCell takes the graph from the memo, and the
// profiling pass and plan happen inside the profiled step.
func (p *replayed) runtime() time.Duration {
	d := p.setup + p.profiled
	for _, m := range p.managed {
		d += m
	}
	return d
}

// pinnedAccess profiles the way Sentinel-GPU does, reading host pages in
// place instead of requiring residency.
var pinnedAccess exec.Option = func(rt *exec.Runtime) { rt.SetPinnedAccess(true) }

// runColdPlan runs distinct cells through experiment.RunCell with no
// cache: graph, profiling step, plan and managed steps with nothing
// shared but the graph memo, warmed at set-up. One op is one cell. A
// traced run replays every cell through the layers' public calls.
func runColdPlan(r *run) error {
	var ref []uint64 // the first segment's cell digests, in order
	var cellMS, execMS, harnessMS []float64
	var reps []*replayed
	probes := map[string][]float64{}
	o := experiment.Options{NoCache: true, Workers: 1}
	err := r.loop(func() error {
		var cells []experiment.CellRequest
		if err := r.setup(func() error {
			cells = coldCells(r.seed, r.size.cells)
			return prewarmGraphs(func(i int) (string, int) { return cells[i].Model, cells[i].Batch }, len(cells))
		}); err != nil {
			return err
		}
		sim := newSimDigest()
		var cpu, gpu int
		start := startTimer()
		for i, req := range cells {
			op := r.newOp()
			root := r.spans.begin("cold-plan.cell", op, -1)
			sp := r.spans.begin("experiment.RunCell", op, root.idx)
			rs, err := experiment.RunCell(o, req)
			d := sp.end()
			var h uint64
			if err == nil {
				h = runDigest(rs)
			}
			if i == len(ref) {
				ref = append(ref, h)
			} else if err == nil && h != ref[i] {
				err = fmt.Errorf("cell %d (%s b%d): simulated differently from the first segment", i, req.Model, req.Batch)
			}
			if err == nil && r.traced {
				probe := ""
				if req.Platform == "gpu" {
					if gpu%swapEvery == 0 {
						probe = "swapadvisor"
					}
					gpu++
				} else {
					if cpu%autotmEvery == 0 {
						probe = "autotm"
					}
					cpu++
				}
				var p *replayed
				p, err = r.replay(op, root.idx, req, probe)
				if err == nil && p.digest != h {
					err = fmt.Errorf("cell %d (%s b%d): the replay simulated differently from RunCell", i, req.Model, req.Batch)
				}
				if err == nil {
					reps = append(reps, p)
					cellMS = append(cellMS, ms(d.cpu))
					execMS = append(execMS, ms(p.runtime()))
					harnessMS = append(harnessMS, ms(d.cpu-p.runtime()))
					if probe != "" {
						probes[probe] = append(probes[probe], ms(p.probe))
					}
				}
			}
			root.end()
			r.op(d, err)
			sim.add(h)
			sampleHostSpeed()
		}
		r.rate(len(cells), start.lap())
		if r.segments == 0 {
			r.digest = sim.String()
		}
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	pick := func(f func(p *replayed) float64) float64 {
		xs := make([]float64, 0, len(reps))
		for _, p := range reps {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	r.layer["model.build_ms_p50"] = pick(func(p *replayed) float64 { return ms(p.build) })
	r.layer["profile.collect_ms_p50"] = pick(func(p *replayed) float64 { return ms(p.collect) })
	r.layer["core.plan_ms_p50"] = pick(func(p *replayed) float64 { return ms(p.plan) })
	r.layer["exec.setup_ms_p50"] = pick(func(p *replayed) float64 { return ms(p.setup) })
	r.layer["exec.profiled_step_ms_p50"] = pick(func(p *replayed) float64 { return ms(p.profiled) })
	var managed []float64
	for _, p := range reps {
		for _, m := range p.managed {
			managed = append(managed, ms(m))
		}
	}
	r.layer["exec.managed_step_ms_p50"] = median(managed)
	r.layer["experiment.harness_ms_p50"] = median(harnessMS)
	r.layer["baseline.autotm_setup_ms_p50"] = median(probes["autotm"])
	r.layer["baseline.swapadvisor_setup_ms_p50"] = median(probes["swapadvisor"])
	r.layer["profile.faults_per_cell"] = pick(func(p *replayed) float64 { return float64(p.faults) })
	r.layer["core.intervals_per_plan"] = pick(func(p *replayed) float64 { return float64(p.intervals) })
	r.layer["model.ops_per_graph"] = pick(func(p *replayed) float64 { return float64(p.ops) })
	r.reconcile("replayed runtime set-up and steps against experiment.RunCell (p50)",
		median(execMS), median(cellMS), 15)
	return nil
}

// replay runs one cell again through the public layer calls, timing
// each: model.Build, profile.Collect, core.BuildPlan, exec.NewRuntime,
// then the profiled step and the managed steps. probe names a baseline
// whose runtime set-up (its planner) is timed on the same input.
func (r *run) replay(op int64, parent int, req experiment.CellRequest, probe string) (*replayed, error) {
	p := &replayed{}
	timed := func(name string, f func() error) (time.Duration, error) {
		sp := r.spans.begin(name, op, parent)
		err := f()
		return sp.end().cpu, err
	}
	var g *graph.Graph
	var err error
	if p.build, err = timed("model.Build", func() (err error) {
		g, err = model.Build(req.Model, req.Batch)
		return err
	}); err != nil {
		return nil, err
	}
	p.ops = len(g.Ops)
	spec, err := experiment.Platform(req.Platform)
	if err != nil {
		return nil, err
	}
	if req.FastPct > 0 {
		spec = spec.WithFastSize(int64(req.FastPct / 100 * float64(g.PeakMemory())))
	}
	var popts []exec.Option
	if spec.GPULike {
		popts = append(popts, pinnedAccess)
	}
	var prof *profile.Profile
	if p.collect, err = timed("profile.Collect", func() (err error) {
		prof, err = profile.Collect(g, spec, popts...)
		return err
	}); err != nil {
		return nil, err
	}
	p.faults = int(prof.Faults)
	if p.plan, err = timed("core.BuildPlan", func() error {
		plan, err := core.BuildPlan(prof, spec, core.LayerDecompFromProfile(prof), 0)
		if err == nil {
			p.intervals = plan.NumIntervals
		}
		return err
	}); err != nil {
		return nil, err
	}
	pol, err := policyset.New(req.Policy)
	if err != nil {
		return nil, err
	}
	var rt *exec.Runtime
	if p.setup, err = timed("exec.NewRuntime", func() (err error) {
		rt, err = exec.NewRuntime(g, spec, pol)
		return err
	}); err != nil {
		return nil, err
	}
	step := func() error {
		_, err := rt.RunStep()
		return err
	}
	if p.profiled, err = timed("exec.RunStep/profiled", step); err != nil {
		return nil, err
	}
	for i := 1; i < req.Steps; i++ {
		d, err := timed("exec.RunStep/managed", step)
		if err != nil {
			return nil, err
		}
		p.managed = append(p.managed, d)
	}
	p.digest = runDigest(rt.Run())
	if probe != "" {
		base, err := policyset.New(probe)
		if err != nil {
			return nil, err
		}
		if p.probe, err = timed("baseline."+probe+".NewRuntime", func() error {
			_, err := exec.NewRuntime(g, spec, base)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}
