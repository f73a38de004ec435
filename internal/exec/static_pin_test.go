package exec_test

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"sentinel/internal/chaos"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/trace"
)

// staticDigest is an FNV-64a digest of every StepStats field the
// benchmark's run digest covers, over all steps of a run.
func staticDigest(steps []*metrics.StepStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, st := range steps {
		div := int64(0)
		if st.Diverged {
			div = 1
		}
		put(int64(st.Duration), int64(st.ComputeTime), int64(st.MemTime),
			int64(st.StallTime), int64(st.FaultTime), int64(st.RecomputeTime),
			st.MigratedIn, st.MigratedOut, st.DemandMigrations, st.FastBytes, st.SlowBytes,
			st.Faults, st.MigrateRetries, st.Degraded, div, st.PeakMapped, st.PeakFastUsed)
	}
	return h.Sum64()
}

// staticRuntime builds the chaos-only Sentinel-GPU cell the pin runs:
// resnet32 at batch 128 on GPUHM with the fast tier at 20% of peak, no
// online controller requested.
func staticRuntime(t *testing.T, cfg chaos.Config, opts ...exec.Option) *exec.Runtime {
	t.Helper()
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.GPUHM().WithFastSize(int64(0.2 * float64(g.PeakMemory())))
	opts = append(opts, exec.WithChaos(chaos.New(cfg)))
	rt, err := exec.NewRuntime(g, spec, core.NewDefault(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestStaticLadderPinned pins the chaos-only degradation path: every
// simulated step figure, the run's divergence flag, and the steps on which
// the plan-diverged and demand-only degrade events fire.
func TestStaticLadderPinned(t *testing.T) {
	const steps = 6
	for _, tc := range []struct {
		name       string
		cfg        chaos.Config
		digest     uint64
		diverged   bool
		divSteps   []int
		demandOnly []int
	}{
		{"migrate-fail", chaos.Config{Seed: 42, MigrateFail: 0.3},
			0x675289c2e5a68572, false, nil, nil},
		{"shrink", chaos.Config{Seed: 42, ShrinkAtStep: 1, ShrinkFrac: 0.25},
			0xb5ce1c4f26107f5e, true, []int{2}, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := trace.NewBus(1)
			var divSteps, demandOnly []int
			bus.Subscribe(func(e trace.Event) {
				switch {
				case e.Kind == trace.KPlanDiverged:
					divSteps = append(divSteps, e.Step)
				case e.Kind == trace.KDegrade && e.Count == trace.DegradeDemandOnly:
					demandOnly = append(demandOnly, e.Step)
				}
			})
			rt := staticRuntime(t, tc.cfg, exec.WithTrace(bus, ""))
			run, err := rt.RunSteps(steps)
			if err != nil {
				t.Fatal(err)
			}
			if got := staticDigest(run.Steps); got != tc.digest {
				t.Errorf("step digest = %#x, want %#x", got, tc.digest)
			}
			if run.Diverged != tc.diverged {
				t.Errorf("run.Diverged = %v, want %v", run.Diverged, tc.diverged)
			}
			if !reflect.DeepEqual(divSteps, tc.divSteps) {
				t.Errorf("plan-diverged on steps %v, want %v", divSteps, tc.divSteps)
			}
			if !reflect.DeepEqual(demandOnly, tc.demandOnly) {
				t.Errorf("demand-only degrade on steps %v, want %v", demandOnly, tc.demandOnly)
			}
		})
	}
}

// TestOnlineFaultFreeMatchesStatic checks that arming the online
// controller on a fault-free run changes nothing: at a fifth of peak fast
// memory a healthy Sentinel-GPU plan stalls for over half of every step,
// yet demands no migration, so the controller must never leave healthy
// and every step must match the run without it.
func TestOnlineFaultFreeMatchesStatic(t *testing.T) {
	const steps = 12
	static, err := staticRuntime(t, chaos.Config{}).RunSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	online, err := staticRuntime(t, chaos.Config{}, exec.WithOnline(exec.DefaultOnline())).RunSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	if online.Replans != 0 || len(online.ControllerLog) != 0 {
		t.Fatalf("fault-free online run replanned %d times, log %q", online.Replans, online.ControllerLog)
	}
	if s, o := staticDigest(static.Steps), staticDigest(online.Steps); s != o {
		t.Fatalf("step digest with the controller %#x, without %#x (steady %v vs %v)",
			o, s, online.SteadyStepTime(), static.SteadyStepTime())
	}
}
