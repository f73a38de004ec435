// Package profile implements Sentinel's tensor-level dynamic profiling
// (Sec. III-A): one training step executed with page-aligned allocation on
// slow memory and poison-bit access counting, coordinated between the OS
// layer (page-fault counts) and the runtime layer (allocation lifetimes and
// layer annotations). Because each page holds one tensor during this step,
// page-level fault counts become exact tensor-level access counts.
//
// The package also provides the characterization analyses behind the
// paper's Observations 1-3, including the page-level false-sharing study.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"sentinel/internal/alloc"
	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// TensorStat is what profiling observes about one tensor.
type TensorStat struct {
	ID   tensor.ID
	Name string
	Kind tensor.Kind
	Size int64
	// AllocLayer/FreeLayer are the observed lifetime bounds (layer
	// indices); preallocated tensors span the whole step.
	AllocLayer, FreeLayer int
	Preallocated          bool
	// Accesses is the per-page main-memory access count observed via
	// protection faults (uniform across a tensor's pages, since ops
	// stream whole tensors).
	Accesses int64
	// PerLayer attributes accesses to layers; the fault handler knows
	// the current layer from the add_layer() annotations.
	PerLayer []tensor.LayerAccess
}

// Lifetime returns the observed lifetime in layers (inclusive).
func (ts *TensorStat) Lifetime() int { return ts.FreeLayer - ts.AllocLayer + 1 }

// ShortLived reports lifetime <= one layer.
func (ts *TensorStat) ShortLived() bool { return !ts.Preallocated && ts.Lifetime() <= 1 }

// LastAccessLayer returns the last layer with accesses, or -1.
func (ts *TensorStat) LastAccessLayer() int {
	last := -1
	for _, a := range ts.PerLayer {
		if a.Layer > last {
			last = a.Layer
		}
	}
	return last
}

// NextAccessAfter returns the first access layer strictly after l, or -1.
func (ts *TensorStat) NextAccessAfter(l int) int {
	next := -1
	for _, a := range ts.PerLayer {
		if a.Layer > l && (next == -1 || a.Layer < next) {
			next = a.Layer
		}
	}
	return next
}

// Profile is the output of the profiling step.
type Profile struct {
	Model     string
	Batch     int
	NumLayers int
	Tensors   []TensorStat
	// LayerTime is the per-layer execution time measured during the
	// profiling step with fault overhead removed — the T() term of the
	// paper's Equation 2. It is measured on slow memory, which is where
	// profiling runs.
	LayerTime []simtime.Duration
	// PeakShortLived is the peak concurrent bytes of short-lived
	// tensors; Sentinel reserves this much fast memory (RS).
	PeakShortLived int64
	// PeakMemory is the peak mapped bytes during the profiled step.
	PeakMemory int64
	// Faults and FaultTime quantify the profiling overhead (the paper
	// reports up to a 5x slowdown of the profiled step).
	Faults    int64
	FaultTime simtime.Duration
	// StepTime is the profiled step's duration including fault
	// overhead.
	StepTime simtime.Duration

	// longOnce guards long, the LongLived list, computed on first use:
	// a cached profile is shared by goroutines that plan, sample and
	// summarize it.
	longOnce sync.Once
	long     []tensor.ID
}

// ByID returns the stat for a tensor id, or nil.
func (p *Profile) ByID(id tensor.ID) *TensorStat {
	if int(id) >= len(p.Tensors) {
		return nil
	}
	return &p.Tensors[id]
}

// LongLived returns ids of non-short-lived, non-preallocated tensors plus
// preallocated ones (which are long-lived by definition), sorted by
// descending access count, ties by ascending id. The list is computed
// once per profile and shared by every caller, which must not modify
// it; the profile's tensors must not change after the first call.
func (p *Profile) LongLived() []tensor.ID {
	p.longOnce.Do(func() { p.long = p.longLived() })
	return p.long
}

// longLived sorts the long-lived tensors for LongLived.
func (p *Profile) longLived() []tensor.ID {
	n, packable := 0, true
	for i := range p.Tensors {
		if ts := &p.Tensors[i]; !ts.ShortLived() {
			n++
			packable = packable && ts.Accesses >= 0 && ts.Accesses <= math.MaxUint32
		}
	}
	if n == 0 {
		return nil
	}
	ids := make([]tensor.ID, 0, n)
	if !packable {
		for i := range p.Tensors {
			if !p.Tensors[i].ShortLived() {
				ids = append(ids, p.Tensors[i].ID)
			}
		}
		slices.SortFunc(ids, func(a, b tensor.ID) int {
			if c := cmp.Compare(p.Tensors[b].Accesses, p.Tensors[a].Accesses); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return ids
	}
	// Each key packs the complement of a tensor's access count above its
	// id, so ascending keys are descending counts, ties by ascending id.
	keys := make([]uint64, 0, n)
	for i := range p.Tensors {
		if ts := &p.Tensors[i]; !ts.ShortLived() {
			keys = append(keys, (math.MaxUint32-uint64(ts.Accesses))<<32|uint64(uint32(ts.ID)))
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		ids = append(ids, tensor.ID(uint32(k)))
	}
	return ids
}

// Recorder accumulates the OS- and runtime-level profiling observations
// for one step: it poisons each tensor's pages at allocation, tracks the
// current layer from the add_layer annotations, and records lifetimes from
// (de)allocation events. The Sentinel policy drives one directly; Collect
// wraps one in a standalone policy.
type Recorder struct {
	rt       *exec.Runtime
	curLayer int
	stats    []TensorStat
}

// NewRecorder starts recording on the runtime: profiling-fault accounting
// and pinned host access are switched on and stats are sized for the
// graph. Pinned access is the GPU protocol of Sec. V: the profiled
// tensors stay in host memory, which the GPU reads in place while the
// CPU-side fault handler counts the accesses; a CPU reads slow memory in
// place anyway.
func NewRecorder(rt *exec.Runtime) *Recorder {
	rt.Kernel().SetProfiling(true)
	rt.SetPinnedAccess(true)
	return &Recorder{rt: rt, stats: make([]TensorStat, len(rt.Graph().Tensors))}
}

// LayerStart tracks the current layer for lifetime attribution.
func (rec *Recorder) LayerStart(l int) { rec.curLayer = l }

// TensorAllocated poisons the tensor's pages and opens its lifetime.
func (rec *Recorder) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	first, last := r.Pages()
	rec.rt.Kernel().Poison(first, last)
	layer := rec.curLayer
	if t.Preallocated {
		layer = 0
	}
	rec.stats[t.ID] = TensorStat{
		ID: t.ID, Name: t.Name, Kind: t.Kind, Size: t.Size,
		AllocLayer: layer, FreeLayer: layer, Preallocated: t.Preallocated,
	}
}

// TensorFreed closes the tensor's lifetime.
func (rec *Recorder) TensorFreed(t *tensor.Tensor, _ alloc.Region) {
	rec.stats[t.ID].FreeLayer = rec.curLayer
}

// Assemble finishes recording and builds the Profile from the step's
// statistics; it also switches fault accounting and pinned host access
// back off, so training on a GPU reverts to device allocation. If the runtime
// carries a fault injector with profiling noise, the assembled access
// counts are jittered per tensor — the profiled step misrepresenting the
// steady state, which is exactly the plan-quality stress the chaos layer
// exists to apply.
func (rec *Recorder) Assemble(st *metrics.StepStats) *Profile {
	rec.rt.Kernel().SetProfiling(false)
	rec.rt.SetPinnedAccess(false)
	p := assemble(rec.rt.Graph(), st, rec.stats)
	applyNoise(p, rec.rt.Chaos())
	return p
}

// applyNoise scales each tensor's observed access counts by its injected
// jitter factor. PerLayer shares the graph's ground-truth slices, so it
// is copied before scaling — the workload itself must stay pristine.
func applyNoise(p *Profile, inj *chaos.Injector) {
	if inj == nil || inj.Config().ProfileNoise <= 0 {
		return
	}
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		f := inj.AccessFactor(int64(ts.ID))
		if f == 1 || len(ts.PerLayer) == 0 {
			continue
		}
		noisy := make([]tensor.LayerAccess, len(ts.PerLayer))
		var n int64
		for j, a := range ts.PerLayer {
			a.Reads = int(f*float64(a.Reads) + 0.5)
			a.Writes = int(f*float64(a.Writes) + 0.5)
			noisy[j] = a
			n += int64(a.Reads + a.Writes)
		}
		ts.PerLayer = noisy
		ts.Accesses = n
	}
}

// collector is the standalone profiling policy: page-aligned slow
// allocation with poisoned pages.
type collector struct {
	exec.Base
	rec *Recorder
}

func (c *collector) Name() string { return "profiler" }

func (c *collector) AllocConfig(g *graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.PageAligned,
		Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Slow },
	}
}

func (c *collector) Setup(rt *exec.Runtime) error {
	c.rec = NewRecorder(rt)
	return nil
}

func (c *collector) LayerStart(l int) { c.rec.LayerStart(l) }

func (c *collector) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	c.rec.TensorAllocated(t, r)
}

func (c *collector) TensorFreed(t *tensor.Tensor, r alloc.Region) {
	c.rec.TensorFreed(t, r)
}

// Collect runs one profiling step of g on the machine and returns the
// profile. The step runs entirely on slow memory, so profiling never
// consumes fast memory (Sec. III-A); on a GPU-like machine it reads host
// memory in place, as Sentinel's own profiling step does. Extra runtime
// options (for example
// exec.WithTrace) apply to the profiling run.
func Collect(g *graph.Graph, spec memsys.Spec, opts ...exec.Option) (*Profile, error) {
	c := &collector{}
	rt, err := exec.NewRuntime(g, spec, c, opts...)
	if err != nil {
		return nil, err
	}
	st, err := rt.RunStep()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return c.rec.Assemble(st), nil
}

func assemble(g *graph.Graph, st *metrics.StepStats, stats []TensorStat) *Profile {
	p := &Profile{
		Model:          g.Model,
		Batch:          g.Batch,
		NumLayers:      g.NumLayers,
		Tensors:        stats,
		PeakShortLived: 0,
		PeakMemory:     st.PeakMapped,
		Faults:         st.Faults,
		FaultTime:      st.FaultTime,
		StepTime:       st.Duration,
	}
	// Per-layer times with fault overhead removed, apportioned by the
	// fraction of total fault time each layer contributed. Fault cost is
	// proportional to faults, which the layer times already include; we
	// subtract proportionally to layer duration share of fault time.
	p.LayerTime = make([]simtime.Duration, len(st.LayerTime))
	var total simtime.Duration
	for _, lt := range st.LayerTime {
		total += lt
	}
	for i, lt := range st.LayerTime {
		adj := lt
		if total > 0 {
			adj -= simtime.Duration(int64(st.FaultTime) * int64(lt) / int64(total))
		}
		if adj < 0 {
			adj = 0
		}
		p.LayerTime[i] = adj
	}
	// Attribute access counts. The fault totals come from the kernel;
	// the per-layer attribution reflects what the fault handler records
	// given the add_layer annotations, which in the simulation equals
	// the graph's per-layer access pattern.
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		if ts.Name == "" {
			// Tensor never allocated during the step (should not
			// happen; graph validation requires allocation).
			continue
		}
		t := g.T(ts.ID)
		ts.PerLayer = t.AccessLayers
		var n int64
		for _, a := range t.AccessLayers {
			n += int64(a.Reads + a.Writes)
		}
		ts.Accesses = n
		if ts.Preallocated {
			ts.FreeLayer = g.NumLayers - 1
		}
	}
	p.PeakShortLived = g.PeakShortLived()
	return p
}
