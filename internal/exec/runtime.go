// Package exec is the discrete-event execution engine. It replays a
// training-step graph against a simulated machine, charging each op a
// roofline time (max of compute and memory components), overlapping
// asynchronous page migration with execution, and invoking a Policy at the
// hook points a real framework runtime would (allocation, op and layer
// boundaries, step boundaries).
//
// The engine is strategy-free: Sentinel and every baseline are Policy
// implementations layered on the same machine, kernel, and allocator.
package exec

import (
	"errors"
	"fmt"

	"sentinel/internal/alloc"
	"sentinel/internal/chaos"
	"sentinel/internal/graph"
	"sentinel/internal/kernel"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// ErrOOM reports that fast memory could not hold the working set: on a
// GPU-like machine an op's tensors must be resident and nothing more could
// be evicted. The max-batch-size experiments probe for this error.
var ErrOOM = errors.New("out of fast memory")

// Runtime binds one graph, one machine, and one policy for a run.
type Runtime struct {
	g      *graph.Graph
	spec   memsys.Spec
	k      *kernel.Kernel
	a      *alloc.Allocator
	policy Policy
	// The policy's optional extensions, nil where it lacks them.
	modeler    AccessModeler
	recomputer Recomputer
	evictor    Evictor

	now simtime.Time
	st  *metrics.StepStats
	run metrics.RunStats
	// pinnedAccess lets GPU compute read host-resident pages in place
	// (pinned/zero-copy memory) instead of requiring residency;
	// profiling steps run in this mode (Sec. V).
	pinnedAccess bool
	// sink emits into the unified event bus when tracing is attached
	// (WithTrace); nil discards.
	sink     *trace.Sink
	traceBus *trace.Bus
	traceRun string
	curLayer int

	// chaos injects faults when attached (WithChaos); nil injects
	// nothing, and every draw below then returns the identity.
	chaos *chaos.Injector
	// ctl judges each step against the plan (WithOnline, or WithChaos
	// with replanning off); nil disables the check.
	ctl *onlineController
	// stepJitter scales op compute time for the step in flight.
	stepJitter float64
	// shrunk records that the fast tier lost capacity mid-run; OOM
	// failures from then on wrap ErrCapacityShrunk.
	shrunk bool
	// degraded, indexed by tensor id and grown on demand, marks tensors
	// downgraded to zero-copy slow-tier access after their migrations
	// were abandoned; never migrated again.
	degraded []bool
	// demandOnly suppresses prefetch into fast memory after the plan
	// diverged; demand migrations still run.
	demandOnly bool
}

// SetPinnedAccess toggles pinned (zero-copy) host access on a GPU-like
// machine: while enabled, ops read slow-tier pages over the interconnect
// instead of stalling for residency. profile.NewRecorder enables it for
// the profiling step and Recorder.Assemble disables it (Sec. V).
func (rt *Runtime) SetPinnedAccess(on bool) { rt.pinnedAccess = on }

// Option configures a Runtime.
type Option func(*Runtime)

// NewRuntime builds a runtime: kernel, policy-configured allocator,
// preallocated tensors placed, and the policy set up.
func NewRuntime(g *graph.Graph, spec memsys.Spec, p Policy, opts ...Option) (*Runtime, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k, err := kernel.New(spec)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		g:          g,
		spec:       spec,
		k:          k,
		policy:     p,
		run:        metrics.RunStats{Model: g.Model, Batch: g.Batch},
		stepJitter: 1,
	}
	rt.modeler, _ = p.(AccessModeler)
	rt.recomputer, _ = p.(Recomputer)
	rt.evictor, _ = p.(Evictor)
	for _, o := range opts {
		o(rt)
	}
	if f := rt.chaos.MigrateDerate(); f != 1 {
		k.InChannel().Derate(f)
		k.OutChannel().Derate(f)
	}
	if rt.chaos != nil && rt.ctl == nil {
		rt.ctl = newController(0)
	}
	rt.wireTrace()
	rt.a = alloc.New(k, p.AllocConfig(g))
	rt.a.Reserve(len(g.Tensors))
	rt.a.SetClock(func() simtime.Time { return rt.now })
	rt.a.SetTrace(rt.sink)
	// Weights and inputs are allocated before the training loop.
	for _, id := range g.Prealloc {
		t := g.T(id)
		if _, err := rt.a.Alloc(t); err != nil {
			return nil, fmt.Errorf("%w: preallocating %s: %v", ErrOOM, t.Name, err)
		}
	}
	if err := p.Setup(rt); err != nil {
		return nil, err
	}
	rt.run.Policy = p.Name()
	for _, id := range g.Prealloc {
		t := g.T(id)
		if r, ok := rt.a.Region(id); ok {
			p.TensorAllocated(t, r)
		}
	}
	return rt, nil
}

// SetGraph swaps the workload between steps — the dynamic-shape and
// control-dependency cases of Sec. IV-E, where the framework generates a
// different dataflow per input bucket. The new graph must share the old
// one's preallocated tensor layout (same ids, kinds, and sizes: parameters
// are physically shared across variants), and all mid-step tensors must
// have been freed (they are, between steps).
func (rt *Runtime) SetGraph(g2 *graph.Graph) error {
	if rt.st != nil {
		return fmt.Errorf("exec: SetGraph mid-step")
	}
	if err := g2.Validate(); err != nil {
		return err
	}
	if len(g2.Prealloc) != len(rt.g.Prealloc) {
		return fmt.Errorf("exec: SetGraph: %d preallocated tensors, want %d", len(g2.Prealloc), len(rt.g.Prealloc))
	}
	for i, id := range g2.Prealloc {
		old := rt.g.T(rt.g.Prealloc[i])
		neu := g2.T(id)
		if id != rt.g.Prealloc[i] || neu.Size != old.Size || neu.Kind != old.Kind {
			return fmt.Errorf("exec: SetGraph: preallocated tensor %d mismatch (%s/%d vs %s/%d)",
				i, neu.Name, neu.Size, old.Name, old.Size)
		}
	}
	if live := rt.a.Live(); live != len(rt.g.Prealloc) {
		return fmt.Errorf("exec: SetGraph with %d live mid-step tensors", live-len(rt.g.Prealloc))
	}
	rt.g = g2
	rt.run.Model = g2.Model
	return nil
}

// Accessors used by policies.

// Now returns the current virtual time.
func (rt *Runtime) Now() simtime.Time { return rt.now }

// Graph returns the workload graph.
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Spec returns the machine spec.
func (rt *Runtime) Spec() memsys.Spec { return rt.spec }

// Kernel returns the simulated OS layer.
func (rt *Runtime) Kernel() *kernel.Kernel { return rt.k }

// Alloc returns the allocator.
func (rt *Runtime) Alloc() *alloc.Allocator { return rt.a }

// Stats returns the statistics of the in-flight step (nil between steps).
func (rt *Runtime) Stats() *metrics.StepStats { return rt.st }

// Run returns the accumulated run statistics.
func (rt *Runtime) Run() *metrics.RunStats { return &rt.run }

// MigrateTensor asynchronously migrates the pages backing a tensor to dst,
// returning the completion instant and bytes queued. Pages the tensor
// shares with neighbours move too — page-level false sharing is real here.
// The shortfall reports bytes that did not fit on dst.
func (rt *Runtime) MigrateTensor(id tensor.ID, dst memsys.Tier) (done simtime.Time, moved, shortfall int64) {
	if dst == memsys.Fast && rt.isDegraded(id) {
		return rt.now, 0, 0
	}
	r, ok := rt.a.Region(id)
	if !ok {
		return rt.now, 0, 0
	}
	return rt.MigrateRange(r.Addr, r.Size, dst)
}

// EvictInOrder migrates tensors to slow memory as MigrateTensor does, one
// id at a time in the order given, until need bytes have moved, and
// returns the bytes moved. An id that is not live moves nothing and has
// no other effect, so an evictor can walk a standing order without
// filtering it first.
//
// A tensor whose mapping has no fast page outside an outbound migration
// and no inbound page has nothing to move, so it is skipped after the one
// fault draw its migration would have made: the injector's stream, and
// so every chaos run, stays as if the migration had been tried.
func (rt *Runtime) EvictInOrder(ids []tensor.ID, need int64) int64 {
	var freed int64
	for _, id := range ids {
		if freed >= need {
			break
		}
		r, m, ok := rt.a.RegionMap(id)
		if !ok {
			continue
		}
		if c, ok := rt.k.Counts(m); ok && c.Inbound == 0 && c.FastOrInbound == c.Outbound {
			rt.chaos.MigrateBatchFails()
			continue
		}
		_, moved, _ := rt.MigrateRange(r.Addr, r.Size, memsys.Slow)
		freed += moved
	}
	return freed
}

// MigrateRange migrates an address range; see MigrateTensor. Under fault
// injection a batch may transiently fail: the failed attempt wastes its
// channel bandwidth (the bytes crossed and were thrown away) and the
// batch is retried up to its budget; an abandoned prefetch leaves the
// pages where they are, to be demand-migrated on touch. In demand-only
// degraded mode, prefetch into fast memory is suppressed entirely
// (evictions to slow still run).
func (rt *Runtime) MigrateRange(addr, size int64, dst memsys.Tier) (done simtime.Time, moved, shortfall int64) {
	if rt.demandOnly && dst == memsys.Fast {
		return rt.now, 0, 0
	}
	for attempt := 1; ; attempt++ {
		if !rt.chaos.MigrateBatchFails() {
			done, moved, shortfall = rt.k.Migrate(addr, size, dst, rt.now)
			rt.noteMigration(dst, moved)
			return done, moved, shortfall
		}
		n := rt.k.MigrateStats(addr, size, dst, rt.now)
		if n == 0 {
			return rt.now, 0, 0
		}
		rt.k.ChargeChannel(dst, n, rt.now, false)
		rt.noteRetry(trace.NoTensor, "", n, attempt)
		if attempt >= maxMigrateAttempts {
			if dst == memsys.Fast {
				rt.emit(trace.Event{At: rt.now, Kind: trace.KDegrade, Tensor: trace.NoTensor,
					Bytes: n, Count: trace.DegradeDemandPaging})
			}
			return rt.now, 0, 0
		}
	}
}

// noteMigration folds a completed migration submission into the step
// statistics. The bus learns about migrations from the kernel layer,
// which knows the channel service span; here we only account bytes.
func (rt *Runtime) noteMigration(dst memsys.Tier, moved int64) {
	if moved == 0 || rt.st == nil {
		return
	}
	if dst == memsys.Fast {
		rt.st.MigratedIn += moved
	} else {
		rt.st.MigratedOut += moved
	}
}

// RelocateFresh reassigns the pages of a freshly allocated region to the
// given tier without a transfer: new tensors carry no data, so placement
// is a page-table operation, not a copy. (Boundary pages shared with live
// group neighbours move with it; co-allocation groups tensors of the same
// lifetime class, keeping that approximation small.) Returns bytes moved.
func (rt *Runtime) RelocateFresh(r alloc.Region, tier memsys.Tier) int64 {
	moved, _ := rt.k.Relocate(r.Addr, r.Size, tier, rt.now)
	return moved
}

// WaitUntil stalls execution until instant t (no-op if already past),
// charging the wait to exposed migration time. Sentinel's Case-3
// "continue migration" choice and GPU layer synchronization use this.
func (rt *Runtime) WaitUntil(t simtime.Time) {
	if t <= rt.now {
		return
	}
	if rt.st != nil {
		rt.st.StallTime += t.Sub(rt.now)
		rt.emit(trace.Event{At: rt.now, Kind: trace.KStall, Dur: t.Sub(rt.now), Tensor: trace.NoTensor})
	}
	rt.now = t
}

// RunStep executes one training step and returns its statistics.
func (rt *Runtime) RunStep() (*metrics.StepStats, error) {
	step := len(rt.run.Steps)
	st := &metrics.StepStats{
		Step:             step,
		LayerTime:        make([]simtime.Duration, rt.g.NumLayers),
		LayerComputeTime: make([]simtime.Duration, rt.g.NumLayers),
		LayerMemTime:     make([]simtime.Duration, rt.g.NumLayers),
	}
	rt.st = st
	rt.curLayer = -1
	rt.stepJitter = rt.chaos.ComputeFactor(step)
	if n := rt.chaos.ShrinkAt(step, rt.k.Spec().Fast.Size); n > 0 {
		if removed := rt.k.ShrinkFast(n); removed > 0 {
			rt.spec.Fast.Size = rt.k.Spec().Fast.Size
			rt.shrunk = true
			rt.emit(trace.Event{At: rt.now, Kind: trace.KCapShrink,
				Tensor: trace.NoTensor, Bytes: removed})
		}
	}
	stepStart := rt.now
	rt.policy.StepStart(step)
	curLayer := -1
	layerStart := rt.now
	closeLayer := func() {
		if curLayer >= 0 {
			rt.policy.LayerEnd(curLayer)
			st.LayerTime[curLayer] += rt.now.Sub(layerStart)
			// Span events are emitted at close, when the extent is known;
			// exporters restore timeline order.
			rt.emit(trace.Event{At: layerStart, Dur: rt.now.Sub(layerStart),
				Kind: trace.KLayer, Tensor: trace.NoTensor})
		}
	}
	for i := range rt.g.Ops {
		op := &rt.g.Ops[i]
		if op.Layer != curLayer {
			closeLayer()
			curLayer = op.Layer
			rt.curLayer = curLayer
			rt.policy.LayerStart(curLayer)
			layerStart = rt.now
		}
		if err := rt.execOp(i, op); err != nil {
			rt.st = nil
			return nil, fmt.Errorf("step %d, op %d (%s): %w", step, i, op.Name, err)
		}
	}
	closeLayer()
	rt.curLayer = -1
	st.Duration = rt.now.Sub(stepStart)
	rt.policy.StepEnd(step, st)
	// StepEnd may stall (e.g. draining migrations); fold that in.
	st.Duration = rt.now.Sub(stepStart)
	rt.emit(trace.Event{At: stepStart, Dur: st.Duration, Kind: trace.KStep, Tensor: trace.NoTensor})
	if rt.ctl != nil {
		if err := rt.controllerStep(st); err != nil {
			rt.st = nil
			return nil, fmt.Errorf("step %d: %w", step, err)
		}
	}
	rt.st = nil
	rt.run.Steps = append(rt.run.Steps, st)
	return st, nil
}

// RunSteps executes n steps and returns the run statistics. Policies warm
// up over the first steps (profiling, test-and-trial); callers read
// steady-state numbers from the last step.
func (rt *Runtime) RunSteps(n int) (*metrics.RunStats, error) {
	for i := 0; i < n; i++ {
		if _, err := rt.RunStep(); err != nil {
			return nil, err
		}
	}
	return &rt.run, nil
}

//perf:hot
func (rt *Runtime) execOp(i int, op *graph.Op) error {
	st := rt.st
	// Allocate outputs and scratch.
	for _, id := range op.Allocs {
		t := rt.g.T(id)
		if rt.spec.GPULike {
			rt.makeRoomFor(t.Size)
		}
		r, err := rt.a.Alloc(t)
		if err != nil {
			return fmt.Errorf("%w: allocating %s (%s)", rt.oomErr(), t.Name, simtime.Bytes(t.Size))
		}
		if rt.sink.Enabled() {
			rt.emit(trace.Event{At: rt.now, Kind: trace.KAlloc, Tensor: t.ID, Name: t.Name, Bytes: t.Size})
		}
		rt.policy.TensorAllocated(t, r)
	}
	rt.policy.OpStart(i, op)

	if m := rt.k.MappedBytes(); m > st.PeakMapped {
		st.PeakMapped = m
	}
	if f := rt.k.Used(memsys.Fast); f > st.PeakFastUsed {
		st.PeakFastUsed = f
	}

	start := rt.now
	if rt.spec.GPULike && !rt.pinnedAccess {
		s, err := rt.ensureResident(op)
		if err != nil {
			return err
		}
		st.StallTime += s.Sub(rt.now)
		start = s
	}

	computeT := simtime.FromSeconds(op.FLOPs * rt.stepJitter / rt.spec.ComputeRate)
	var memT simtime.Duration
	var faults int64
	for _, ac := range op.Accesses {
		t := rt.g.T(ac.Tensor)
		r, m, ok := rt.a.RegionMap(ac.Tensor)
		if !ok {
			return fmt.Errorf("op accesses unallocated tensor %s", t.Name)
		}
		readBytes := t.Size * int64(ac.Reads)
		writeBytes := t.Size * int64(ac.Writes)
		var sp AccessSplit
		if rt.modeler != nil {
			sp = rt.modeler.ModelAccess(t, r, readBytes, writeBytes, start)
		} else {
			fastFrac := rt.fastFraction(r, m, start)
			sp = AccessSplit{
				FastRead:  int64(fastFrac * float64(readBytes)),
				FastWrite: int64(fastFrac * float64(writeBytes)),
			}
			sp.SlowRead = readBytes - sp.FastRead
			sp.SlowWrite = writeBytes - sp.FastWrite
		}
		memT += simtime.TransferTime(sp.FastRead, rt.spec.Fast.ReadBW) +
			simtime.TransferTime(sp.FastWrite, rt.spec.Fast.WriteBW) +
			simtime.TransferTime(sp.SlowRead, rt.spec.Slow.ReadBW) +
			simtime.TransferTime(sp.SlowWrite, rt.spec.Slow.WriteBW) +
			sp.Extra
		// Each main-memory access pays the latency of the tier that
		// serves most of its bytes; for small tensors this dominates.
		accesses := ac.Reads + ac.Writes
		if sp.FastRead+sp.FastWrite >= sp.SlowRead+sp.SlowWrite {
			memT += simtime.Duration(accesses) * rt.spec.Fast.Latency
		} else {
			memT += simtime.Duration(accesses) * rt.spec.Slow.Latency
		}
		faults += rt.k.Touch(r.Addr, r.Size, accesses, ac.Writes > 0, start)
		st.FastBytes += sp.FastRead + sp.FastWrite
		st.SlowBytes += sp.SlowRead + sp.SlowWrite
		rt.noteAccess(start, trace.TierFast, sp.FastRead+sp.FastWrite, t.ID, t.Name)
		rt.noteAccess(start, trace.TierSlow, sp.SlowRead+sp.SlowWrite, t.ID, t.Name)
	}
	faultT := simtime.Duration(faults) * rt.spec.FaultCost
	// Imperfect roofline: the smaller component only partially hides
	// under the larger one.
	lo, hi := computeT, memT
	if lo > hi {
		lo, hi = hi, lo
	}
	dur := hi + simtime.FromSeconds((1-rt.spec.OverlapFactor)*lo.Seconds())
	dur += faultT
	st.ComputeTime += computeT
	st.MemTime += memT
	st.FaultTime += faultT
	st.Faults += faults
	st.LayerComputeTime[op.Layer] += computeT
	st.LayerMemTime[op.Layer] += memT
	rt.now = start.Add(dur)

	for _, id := range op.Frees {
		t := rt.g.T(id)
		r, _ := rt.a.Region(id)
		if err := rt.a.Free(t); err != nil {
			return err
		}
		if rt.sink.Enabled() {
			rt.emit(trace.Event{At: rt.now, Kind: trace.KFree, Tensor: t.ID, Name: t.Name, Bytes: t.Size})
		}
		rt.policy.TensorFreed(t, r)
	}
	rt.policy.OpEnd(i, op)
	return nil
}

// fastFraction returns the fraction of a region in mapping m resident on
// fast memory. With no page of m in flight and m on one tier, the counts
// answer for any mapped region inside m; TierBytes walks the rest.
//
//perf:hot
func (rt *Runtime) fastFraction(r alloc.Region, m kernel.MapID, at simtime.Time) float64 {
	if c, ok := rt.k.Counts(m); ok && c.Inbound == 0 && c.Outbound == 0 {
		switch c.FastOrInbound {
		case 0:
			return 0
		case c.Pages:
			return 1
		}
	}
	fast, slow := rt.k.TierBytes(r.Addr, r.Size, at)
	switch {
	case fast == 0:
		return 0
	case slow == 0:
		return 1
	}
	return float64(fast) / float64(fast+slow)
}

// wholeMapping reports whether r's pages are exactly the mapping's, none
// of them unmapped.
func wholeMapping(r alloc.Region, c kernel.MapCounts) bool {
	first, last := r.Pages()
	return first == c.First && last == c.Last && int64(c.Pages) == int64(last-first)+1
}

// makeRoomFor frees fast-tier space for n more bytes: first by reclaiming
// dead allocator chunks (framework allocators return cached regions under
// pressure), then by asking the policy's evictor. Best-effort: allocation
// falls back or fails on its own if neither helps.
func (rt *Runtime) makeRoomFor(n int64) {
	free := rt.k.Free(memsys.Fast)
	if free >= n {
		return
	}
	rt.a.Reclaim(memsys.Fast, n-free)
	free = rt.k.Free(memsys.Fast)
	if free >= n {
		return
	}
	if rt.evictor != nil {
		rt.evictor.MakeRoom(rt, n-free)
	}
}

// ensureResident makes every page an op touches resident on fast memory
// (GPU global memory) and returns the instant the op can start. Pending
// prefetches are waited for; unscheduled pages are demand-migrated;
// recomputable tensors (Capuchin) are regenerated in place.
func (rt *Runtime) ensureResident(op *graph.Op) (simtime.Time, error) {
	start := rt.now
	st := rt.st
	// stallOn attributes the additional critical-path delay one tensor
	// imposes beyond the waits already accounted: each tensor's wait runs
	// concurrently with the others', so only the increment over the
	// running max is exposed.
	stallOn := func(until simtime.Time, t *tensor.Tensor) {
		if until > start {
			rt.emit(trace.Event{At: start, Dur: until.Sub(start), Kind: trace.KStall,
				Tensor: t.ID, Name: t.Name})
			start = until
		}
	}
	for _, ac := range op.Accesses {
		if rt.isDegraded(ac.Tensor) {
			// Zero-copy fallback: the op reads this tensor in place over
			// the interconnect (the access split charges slow bandwidth).
			continue
		}
		r, m, ok := rt.a.RegionMap(ac.Tensor)
		if !ok {
			return 0, fmt.Errorf("residency check on unallocated tensor %d", ac.Tensor)
		}
		t := rt.g.T(ac.Tensor)
		ready, resident := rt.now, false
		if c, ok := rt.k.Counts(m); ok && c.Inbound == 0 && c.Outbound == 0 && wholeMapping(r, c) {
			// Only a whole mapping is answered from its counts:
			// ResidentFastBy splits runs at the tensor's boundaries, and
			// later migrations of overlapping ranges see those splits.
			resident = c.FastOrInbound == c.Pages
		} else {
			first, last := r.Pages()
			ready, resident = rt.k.ResidentFastBy(first, last, rt.now)
		}
		if resident {
			stallOn(ready, t)
			continue
		}
		if rt.recomputer != nil {
			if d, yes := rt.recomputer.Recompute(t); yes {
				_, short := rt.k.Relocate(r.Addr, r.Size, memsys.Fast, rt.now)
				if short > 0 {
					rt.makeRoomFor(short)
					_, short = rt.k.Relocate(r.Addr, r.Size, memsys.Fast, rt.now)
				}
				if short > 0 {
					return 0, fmt.Errorf("%w: recomputing %s", rt.oomErr(), t.Name)
				}
				st.RecomputeTime += d
				start = start.Add(d)
				continue
			}
		}
		need := rt.k.MigrateStats(r.Addr, r.Size, memsys.Fast, rt.now)
		// Eviction under churn is approximate; retry a few times
		// before declaring the device out of memory.
		for attempt := 0; attempt < 3; attempt++ {
			free := rt.k.Free(memsys.Fast)
			if free >= need {
				break
			}
			rt.emit(trace.Event{At: rt.now, Kind: trace.KOOMRetry, Tensor: t.ID,
				Name: t.Name, Bytes: need - free, Count: int64(attempt + 1)})
			rt.makeRoomFor(need)
		}
		done, moved, short, ok := rt.demandMigrate(r, t)
		if ok && short > 0 {
			// Much of fast memory may be tied up in in-flight
			// transfers that eviction cannot touch; block until the
			// migration channels drain (the real runtime waits on its
			// helper threads), make room again, and retry once before
			// declaring out-of-memory.
			settle := simtime.Max(rt.k.InChannel().BusyUntil(), rt.k.OutChannel().BusyUntil())
			rt.WaitUntil(settle.Add(simtime.Microsecond))
			rt.makeRoomFor(need)
			var more int64
			done, more, short, ok = rt.demandMigrate(r, t)
			moved += more
		}
		// The first attempt's bytes landed even when it came back short.
		rt.noteMigration(memsys.Fast, moved)
		if !ok {
			rt.degradeTensor(t, trace.DegradeZeroCopy)
			continue
		}
		if short > 0 {
			return 0, fmt.Errorf("%w: demand-migrating %s (%s short; fast used %s free %s, %d live allocs in %d arenas)",
				rt.oomErr(), t.Name, simtime.Bytes(short), simtime.Bytes(rt.k.Used(memsys.Fast)),
				simtime.Bytes(rt.k.Free(memsys.Fast)), rt.a.Live(), rt.a.ArenaCount())
		}
		rt.emit(trace.Event{At: rt.now, Kind: trace.KDemand, Tensor: t.ID, Name: t.Name, Bytes: moved})
		st.DemandMigrations++
		done = done.Add(rt.spec.DemandFaultCost)
		stallOn(done, t)
	}
	return start, nil
}
