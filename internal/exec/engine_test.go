package exec_test

import (
	"testing"

	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// microGraph builds a 2-layer graph with one big activation produced in
// layer 0 and consumed in layer 1 — the smallest workload that exercises
// migration and residency.
func microGraph(t *testing.T, actBytes int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("micro", 1)
	w := b.Prealloc("w", tensor.Weight, 4096)
	b.BeginLayer()
	op := b.Op("produce", 1e9)
	op.Read(w, 1)
	act := op.Alloc("act", tensor.Activation, actBytes)
	op.Write(act, 1)
	b.EndLayer()
	b.BeginLayer()
	op2 := b.Op("consume", 1e9)
	op2.Read(act, 1)
	op2.Free(act)
	b.EndLayer()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gpuSpec is a tiny GPU-like machine.
func gpuSpec(fast int64) memsys.Spec {
	s := memsys.GPUHM()
	s.Fast.Size = fast
	return s
}

// slowAllocPolicy places everything on slow memory and does nothing else.
type slowAllocPolicy struct{ exec.Base }

func (slowAllocPolicy) Name() string { return "slow-alloc" }
func (slowAllocPolicy) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{Mode: alloc.Packed, Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Slow }}
}

func TestGPUDemandMigrationStalls(t *testing.T) {
	g := microGraph(t, 64<<20)
	rt, err := exec.NewRuntime(g, gpuSpec(256<<20), &slowAllocPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	if st.DemandMigrations == 0 {
		t.Fatal("no demand migrations for slow-resident tensors on GPU")
	}
	if st.StallTime == 0 {
		t.Fatal("demand migration did not stall")
	}
	if st.MigratedIn == 0 {
		t.Fatal("nothing migrated in")
	}
}

func TestPinnedAccessBypassesResidency(t *testing.T) {
	g := microGraph(t, 64<<20)
	p := &slowAllocPolicy{}
	rt, err := exec.NewRuntime(g, gpuSpec(256<<20), p)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetPinnedAccess(true)
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	if st.DemandMigrations != 0 {
		t.Fatal("pinned access still demand-migrated")
	}
	if st.SlowBytes == 0 {
		t.Fatal("pinned access should read host memory in place")
	}
}

// recomputePolicy declares the activation recomputable.
type recomputePolicy struct {
	slowAllocPolicy
	cost simtime.Duration
}

func (p *recomputePolicy) Recompute(t *tensor.Tensor) (simtime.Duration, bool) {
	if t.Kind == tensor.Activation {
		return p.cost, true
	}
	return 0, false
}

func TestRecomputeInsteadOfTransfer(t *testing.T) {
	g := microGraph(t, 64<<20)
	p := &recomputePolicy{cost: 7 * simtime.Millisecond}
	rt, err := exec.NewRuntime(g, gpuSpec(256<<20), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecomputeTime != 7*simtime.Millisecond {
		t.Fatalf("recompute time %v", st.RecomputeTime)
	}
	// The activation was regenerated, not transferred.
	if st.MigratedIn > 4096 {
		t.Fatalf("recompute still transferred %d bytes", st.MigratedIn)
	}
}

func TestWaitUntilChargesStall(t *testing.T) {
	g := microGraph(t, 1<<20)
	rt, err := exec.NewRuntime(g, memsys.OptaneHM(), &slowAllocPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Policies may call WaitUntil mid-step; emulate via a wrapper step.
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	before := rt.Now()
	rt.WaitUntil(before.Add(5 * simtime.Millisecond))
	if rt.Now() != before.Add(5*simtime.Millisecond) {
		t.Fatal("WaitUntil did not advance time")
	}
	rt.WaitUntil(before) // no-op backwards
	if rt.Now() != before.Add(5*simtime.Millisecond) {
		t.Fatal("WaitUntil went backwards")
	}
	_ = st
}

func TestRelocateFreshIsInstant(t *testing.T) {
	g := microGraph(t, 8<<20)
	rt, err := exec.NewRuntime(g, memsys.OptaneHM(), &slowAllocPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Preallocated weight sits on slow; relocate it to fast for free.
	r, ok := rt.Alloc().Region(0)
	if !ok {
		t.Fatal("no region for prealloc")
	}
	before := rt.Now()
	moved := rt.RelocateFresh(r, memsys.Fast)
	if moved == 0 {
		t.Fatal("nothing relocated")
	}
	if rt.Now() != before {
		t.Fatal("relocation consumed simulated time")
	}
	fast, _ := rt.Kernel().TierBytes(r.Addr, r.Size, rt.Now())
	if fast == 0 {
		t.Fatal("region not on fast after relocation")
	}
}

func TestOOMWhenNothingEvictable(t *testing.T) {
	g := microGraph(t, 64<<20)
	// Fast memory smaller than the activation: residency can never be
	// satisfied and the policy offers no eviction.
	rt, err := exec.NewRuntime(g, gpuSpec(16<<20), &slowAllocPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunStep(); err == nil {
		t.Fatal("expected OOM")
	}
}

func TestRooflineTiming(t *testing.T) {
	// With compute 1e9 FLOPs at 1e12 FLOP/s, compute time is 1 ms per
	// op; memory traffic is small. Overlap factor 1 gives max().
	g := microGraph(t, 1<<20)
	spec := memsys.OptaneHM()
	spec.ComputeRate = 1e12
	spec.OverlapFactor = 1
	spec.SyncCost = 0
	rt, err := exec.NewRuntime(g, spec, &slowAllocPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	// Two ops, each at least 1 ms of compute.
	if st.Duration < 2*simtime.Millisecond {
		t.Fatalf("step %v below compute floor", st.Duration)
	}
	if st.ComputeTime != 2*simtime.Millisecond {
		t.Fatalf("compute time %v", st.ComputeTime)
	}
}

func TestOverlapFactorMonotonic(t *testing.T) {
	// Lower overlap factor means more exposed memory time, never less.
	var prev simtime.Duration
	for _, of := range []float64{1.0, 0.5, 0.0} {
		g := microGraph(t, 32<<20)
		spec := memsys.OptaneHM()
		spec.OverlapFactor = of
		rt, err := exec.NewRuntime(g, spec, &slowAllocPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.RunStep()
		if err != nil {
			t.Fatal(err)
		}
		if st.Duration < prev {
			t.Fatalf("overlap %.1f: step %v shorter than with more overlap (%v)", of, st.Duration, prev)
		}
		prev = st.Duration
	}
}

// TestMigrationTraceRecorded: every slow->fast byte the step accounts
// crosses the bus as a migrate-in event.
func TestMigrationTraceRecorded(t *testing.T) {
	g := microGraph(t, 64<<20)
	p := &slowAllocPolicy{}
	var in int64
	bus := trace.NewBus(1)
	bus.Subscribe(func(e trace.Event) {
		if e.Kind == trace.KMigrateIn {
			in += e.Bytes
		}
	})
	rt, err := exec.NewRuntime(g, gpuSpec(256<<20), p, exec.WithTrace(bus, ""))
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.RunStep()
	if err != nil {
		t.Fatal(err)
	}
	if in == 0 {
		t.Fatal("migration traffic missing from the bus")
	}
	if in != st.MigratedIn {
		t.Fatalf("bus migrate-in %d != stats %d", in, st.MigratedIn)
	}
}

func TestSetGraphValidation(t *testing.T) {
	g1 := microGraph(t, 1<<20)
	rt, err := exec.NewRuntime(g1, memsys.OptaneHM(), &slowAllocPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunStep(); err != nil {
		t.Fatal(err)
	}
	// Same-shape graph: accepted.
	g2 := microGraph(t, 1<<20)
	g2.Variant = 1
	if err := rt.SetGraph(g2); err != nil {
		t.Fatalf("same-layout graph rejected: %v", err)
	}
	if _, err := rt.RunStep(); err != nil {
		t.Fatal(err)
	}
	// Different prealloc size: rejected.
	b := graph.NewBuilder("bad", 1)
	b.Prealloc("w", tensor.Weight, 8192) // size differs
	b.BeginLayer()
	op := b.Op("x", 1)
	id := op.Alloc("t", tensor.Scratch, 64)
	op.Write(id, 1)
	op.Free(id)
	b.EndLayer()
	g3, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetGraph(g3); err == nil {
		t.Fatal("mismatched prealloc layout accepted")
	}
}

func TestMemsysCXLNarrowsGap(t *testing.T) {
	// CXL slow memory is much closer to DRAM than Optane; the slow-only
	// penalty must shrink accordingly.
	g := microGraph(t, 64<<20)
	run := func(spec memsys.Spec) float64 {
		g2 := microGraph(t, 64<<20)
		rt, err := exec.NewRuntime(g2, spec, &slowAllocPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.RunStep()
		if err != nil {
			t.Fatal(err)
		}
		return st.Duration.Seconds()
	}
	optane := run(memsys.OptaneHM())
	cxl := run(memsys.CXLHM())
	if cxl >= optane {
		t.Fatalf("CXL slow tier (%v s) not faster than Optane (%v s)", cxl, optane)
	}
	_ = g
}
