package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/trace"
)

// stepCell is one of steady-steps' runtimes.
type stepCell struct {
	Name    string
	Model   string
	Batch   int
	Policy  string
	GPU     bool         // the GPU preset; otherwise Optane
	FastPct float64      // fast tier as a share of peak memory; 0 keeps the preset's
	Chaos   chaos.Config // zero for a clean run
	Online  bool         // arm the online controller
}

// warmupSteps run untimed in set-up, past every policy's profiling and
// trial steps.
const warmupSteps = 3

// steadyCells are the nine runtimes steady-steps steps: Sentinel and the
// CPU baselines on Optane with the fast tier at 20% of peak, the GPU
// policies on the GPU preset, and Sentinel-GPU under migration failures
// twice, once with the static divergence monitor and once with the
// online controller, so both degradation paths run. The seed picks the
// chaos seed, which decides the migrations that fail. It does not pick
// the fast tiers: Sentinel's step on bert-base costs four times as much
// with the fast tier at 28-30% of peak as at 16-27%, so seeded tiers
// made one seed's run do more work than another's.
func steadyCells(seed int64) []stepCell {
	faults := chaos.Config{Seed: rand.New(rand.NewSource(seed)).Int63(), MigrateFail: 0.3}
	return []stepCell{
		{Name: "cpu-sentinel-resnet32", Model: "resnet32", Batch: 128, Policy: "sentinel", FastPct: 20},
		{Name: "cpu-sentinel-bert-base", Model: "bert-base", Batch: 16, Policy: "sentinel", FastPct: 20},
		{Name: "cpu-ial-resnet32", Model: "resnet32", Batch: 128, Policy: "ial", FastPct: 20},
		{Name: "cpu-memmode-resnet32", Model: "resnet32", Batch: 128, Policy: "memory-mode", FastPct: 20},
		{Name: "gpu-sentinel-resnet200", Model: "resnet200", Batch: 96, Policy: "sentinel-gpu", GPU: true},
		{Name: "gpu-um-bert-large", Model: "bert-large", Batch: 32, Policy: "um", GPU: true},
		{Name: "gpu-capuchin-resnet200", Model: "resnet200", Batch: 96, Policy: "capuchin", GPU: true},
		{Name: "gpu-chaos-static", Model: "resnet32", Batch: 128, Policy: "sentinel-gpu", GPU: true, FastPct: 20, Chaos: faults},
		{Name: "gpu-chaos-online", Model: "resnet32", Batch: 128, Policy: "sentinel-gpu", GPU: true, FastPct: 20, Chaos: faults, Online: true},
	}
}

// runtime builds the cell's runtime from a fresh graph and warms it up.
func (c stepCell) runtime(opts ...exec.Option) (*exec.Runtime, error) {
	g, err := model.Build(c.Model, c.Batch)
	if err != nil {
		return nil, err
	}
	spec := memsys.OptaneHM()
	if c.GPU {
		spec = memsys.GPUHM()
	}
	if c.FastPct > 0 {
		spec = spec.WithFastSize(int64(c.FastPct / 100 * float64(g.PeakMemory())))
	}
	p, err := policyset.New(c.Policy)
	if err != nil {
		return nil, err
	}
	if c.Chaos.Enabled() {
		opts = append(opts, exec.WithChaos(chaos.New(c.Chaos)))
	}
	if c.Online {
		opts = append(opts, exec.WithOnline(exec.DefaultOnline()))
	}
	rt, err := exec.NewRuntime(g, spec, p, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	for i := 0; i < warmupSteps; i++ {
		if _, err := rt.RunStep(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", c.Name, err)
		}
	}
	return rt, nil
}

// runSteadySteps steps nine warmed runtimes round-robin: the engine's
// hot loop with planning, the cache and HTTP left out. One op is one
// round, a training step of every runtime: a single step's time depends
// on which runtime took it, so the tail of step times is the middle of
// the slowest runtime's and jumped with it, while a round's time is
// smooth. A traced run also steps a traced twin of every runtime,
// counting the simulator's events per step and the cost of emitting them.
func runSteadySteps(r *run) error {
	cells := steadyCells(r.seed)
	spanNames := make([]string, len(cells))
	for i, c := range cells {
		spanNames[i] = "exec.RunStep/" + c.Name
	}
	var ref []uint64 // the first segment's step digests, in order
	perCell := make([][]float64, len(cells))
	var nsPerOp []float64
	var plain, traced time.Duration // CPU time
	var tracedSteps int
	kinds := map[trace.Kind]int64{}

	// rounds steps every runtime once per round, checking each step
	// against the first segment's.
	rounds := func(rts []*exec.Runtime, record bool) (lap, string) {
		sim := newSimDigest()
		k := 0
		start := startTimer()
		for round := 0; round < r.size.rounds; round++ {
			op := startTimer()
			var bad []error
			for i, rt := range rts {
				d, h, err := r.step(rt, spanNames[i])
				if k == len(ref) {
					ref = append(ref, h)
				} else if err == nil && h != ref[k] {
					err = fmt.Errorf("%s: step %d simulated differently from the first segment", cells[i].Name, warmupSteps+round)
				}
				if err != nil {
					bad = append(bad, err)
				}
				sim.add(h)
				k++
				if record {
					perCell[i] = append(perCell[i], ms(d.cpu))
					nsPerOp = append(nsPerOp, float64(d.cpu.Nanoseconds())/float64(len(rt.Graph().Ops)))
				}
			}
			r.op(op.lap(), errors.Join(bad...))
			sampleHostSpeed()
		}
		return start.lap(), sim.String()
	}

	err := r.loop(func() error {
		var rts, twins []*exec.Runtime
		if err := r.setup(func() error {
			var bus *trace.Bus
			if r.traced {
				bus = trace.NewBus(1) // events are counted, not kept
				// Count from the first timed step on, not the warm-up.
				defer bus.Subscribe(func(e trace.Event) { kinds[e.Kind]++ })
			}
			for _, c := range cells {
				rt, err := c.runtime()
				if err != nil {
					return err
				}
				rts = append(rts, rt)
				if bus != nil {
					twin, err := c.runtime(exec.WithTrace(bus, c.Name))
					if err != nil {
						return err
					}
					twins = append(twins, twin)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		d, sim := rounds(rts, true)
		r.rate(r.size.rounds, d)
		if r.segments == 0 {
			r.digest = sim
		}
		if r.traced {
			plain += d.cpu
			td, _ := rounds(twins, false)
			traced += td.cpu
			tracedSteps += len(twins) * r.size.rounds
		}
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	for i, c := range cells {
		r.layer["exec.step_ms_p50."+c.Name] = median(perCell[i])
	}
	r.layer["exec.host_ns_per_op"] = median(nsPerOp)
	for _, k := range stepKinds {
		r.layer["trace."+k+"_per_step"] = float64(kinds[trace.Kind(k)]) / float64(tracedSteps)
	}
	r.layer["trace.overhead_pct"] = 100 * (traced.Seconds()/plain.Seconds() - 1)
	return nil
}

// step runs one timed training step and checks what it simulated: the
// step took simulated time and never used more fast memory than the
// tier holds.
func (r *run) step(rt *exec.Runtime, spanName string) (lap, uint64, error) {
	sp := r.spans.begin(spanName, r.newOp(), -1)
	st, err := rt.RunStep()
	d := sp.end()
	if err != nil {
		return d, 0, err
	}
	if st.Duration <= 0 {
		return d, 0, fmt.Errorf("%s step %d: non-positive duration %v", spanName, st.Step, st.Duration)
	}
	if limit := rt.Spec().Fast.Size; st.PeakFastUsed > limit {
		return d, 0, fmt.Errorf("%s step %d: peak fast use %d exceeds the fast tier's %d", spanName, st.Step, st.PeakFastUsed, limit)
	}
	h := fnv.New64a()
	stepDigest(h, st)
	return d, h.Sum64(), nil
}
