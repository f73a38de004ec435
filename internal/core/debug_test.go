package core

import (
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/simtime"
)

// TestDebugPlan prints plan internals for manual calibration; it makes no
// assertions and is kept as a diagnostic harness.
func TestDebugPlan(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	s := NewDefault()
	rt, err := exec.NewRuntime(g, spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	pl := s.Plan()
	t.Logf("layers=%d plan=%v lowerBound=%s fast=%s", g.NumLayers, pl,
		simtime.Bytes(LowerBound(s.Profile())), simtime.Bytes(spec.Fast.Size))
	for k := 0; k < pl.NumIntervals; k++ {
		t.Logf("interval %d: %d needs, %s", k, len(pl.Needs[k]),
			simtime.Bytes(pl.NeedBytes[k]))
	}
	evicts := 0
	for l := range pl.EvictAt {
		evicts += len(pl.EvictAt[l])
	}
	t.Logf("evict entries: %d", evicts)
	ests := MILEstimates(s.Profile(), spec, s.cur.decomp)
	for _, e := range ests[:min(len(ests), 12)] {
		t.Logf("MIL=%d est=%v exposed=%v feasible=%v overflow=%s",
			e.MIL, e.StepTime, e.Exposed, e.Feasible, simtime.Bytes(e.OverflowBytes))
	}
	st := rt.Run().SteadyStep()
	t.Logf("steady: %v", st)
}

// TestDebugCirculation inspects steady-state migration circulation.
func TestDebugCirculation(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	s := NewDefault()
	rt, err := exec.NewRuntime(g, spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(4); err != nil {
		t.Fatal(err)
	}
	for _, st := range rt.Run().Steps {
		t.Logf("step %d: in=%s out=%s demand=%d", st.Step,
			simtime.Bytes(st.MigratedIn), simtime.Bytes(st.MigratedOut), st.DemandMigrations)
	}
}

// wrapPolicy logs fast-memory occupancy at each layer.
type wrapPolicy struct {
	*Sentinel
	t  *testing.T
	rt *exec.Runtime
}

func (w *wrapPolicy) Setup(rt *exec.Runtime) error {
	w.rt = rt
	return w.Sentinel.Setup(rt)
}

func (w *wrapPolicy) LayerStart(l int) {
	w.Sentinel.LayerStart(l)
	k := w.rt.Kernel()
	if w.rt.Run() != nil && len(w.rt.Run().Steps) == 3 { // log during step 3
		w.t.Logf("layer %2d: fast used=%8.1fKiB free=%8.1fKiB runs=%d",
			l, float64(k.Used(0))/1024, float64(k.Free(0))/1024, k.Runs())
	}
}

func TestDebugOccupancy(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	w := &wrapPolicy{Sentinel: NewDefault(), t: t}
	rt, err := exec.NewRuntime(g, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(4); err != nil {
		t.Fatal(err)
	}
}

func TestDebugArenas(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(g.PeakMemory() / 5)
	s := NewDefault()
	rt, err := exec.NewRuntime(g, spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunSteps(4); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, u := range rt.Alloc().ArenaBytes() {
		if u.Bytes > 1<<20 {
			t.Logf("arena %-18s %8.1f KiB", u.Name, float64(u.Bytes)/1024)
		}
		total += u.Bytes
	}
	t.Logf("arena total %.1f MiB; fast used %.1f MiB (pool reserve %.1f MiB)",
		float64(total)/(1<<20), float64(rt.Kernel().Used(0))/(1<<20), float64(s.Plan().Reserve)/(1<<20))
}
