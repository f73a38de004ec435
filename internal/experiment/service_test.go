package experiment

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

func TestCellRequestValidate(t *testing.T) {
	valid := CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastPct: 20, Steps: 2}
	if err := valid.Normalized().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(r *CellRequest)
		field string
	}{
		{"missing model", func(r *CellRequest) { r.Model = "" }, "model"},
		{"unknown model", func(r *CellRequest) { r.Model = "resnet9000" }, "model"},
		{"zero batch", func(r *CellRequest) { r.Batch = 0 }, "batch"},
		{"negative batch", func(r *CellRequest) { r.Batch = -4 }, "batch"},
		{"missing policy", func(r *CellRequest) { r.Policy = "" }, "policy"},
		{"unknown policy", func(r *CellRequest) { r.Policy = "oracle" }, "policy"},
		{"unknown platform", func(r *CellRequest) { r.Platform = "tpu" }, "platform"},
		{"batch above the limit", func(r *CellRequest) { r.Batch = BatchLimit + 1 }, "batch"},
		{"huge batch", func(r *CellRequest) { r.Batch = 1 << 50 }, "batch"},
		{"negative fast_pct", func(r *CellRequest) { r.FastPct = -1 }, "fast_pct"},
		{"NaN fast_pct", func(r *CellRequest) { r.FastPct = math.NaN() }, "fast_pct"},
		{"Inf fast_pct", func(r *CellRequest) { r.FastPct = math.Inf(1) }, "fast_pct"},
		{"-Inf fast_pct", func(r *CellRequest) { r.FastPct = math.Inf(-1) }, "fast_pct"},
		{"negative fast_bytes", func(r *CellRequest) { r.FastPct = 0; r.FastBytes = -1 }, "fast_bytes"},
		{"both sizings", func(r *CellRequest) { r.FastBytes = 1 << 20 }, "fast_pct"},
		{"steps too large", func(r *CellRequest) { r.Steps = 1001 }, "steps"},
		{"negative steps", func(r *CellRequest) { r.Steps = -1 }, "steps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid
			tc.mut(&r)
			err := r.Normalized().Validate()
			if err == nil {
				t.Fatal("want validation error, got nil")
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("error %v does not wrap ErrBadRequest", err)
			}
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("error %T is not a *RequestError", err)
			}
			if re.Field != tc.field {
				t.Fatalf("error names field %q, want %q (%v)", re.Field, tc.field, err)
			}
		})
	}
}

func TestPlanRequestValidate(t *testing.T) {
	if err := (PlanRequest{Model: "resnet32", Batch: 32}).Normalized().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	for _, r := range []PlanRequest{
		{Model: "", Batch: 32},
		{Model: "resnet32", Batch: 0},
		{Model: "resnet32", Batch: BatchLimit + 1},
		{Model: "resnet32", Batch: 32, Platform: "abacus"},
	} {
		if err := r.Normalized().Validate(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("request %+v: want ErrBadRequest, got %v", r, err)
		}
	}
	if err := (PlanRequest{Model: "resnet32", Batch: BatchLimit}).Normalized().Validate(); err != nil {
		t.Errorf("batch at the limit rejected: %v", err)
	}
}

// TestBatchLimitBuilds checks that every model builds at BatchLimit,
// so a request the bound admits never overflows a tensor size.
func TestBatchLimitBuilds(t *testing.T) {
	for _, name := range model.Names() {
		g, err := model.Build(name, BatchLimit)
		if err != nil {
			t.Errorf("%s at batch %d: %v", name, BatchLimit, err)
			continue
		}
		if g.PeakMemory() <= 0 {
			t.Errorf("%s at batch %d: peak memory %d", name, BatchLimit, g.PeakMemory())
		}
	}
}

// TestSpecSizingErrors checks that a fast tier sized out of range — a
// finite fast_pct whose size overflows int64, or a size under one page
// — is a request error on the sizing field, not a memsys failure.
func TestSpecSizingErrors(t *testing.T) {
	o := Options{Cache: NewCache(), Workers: 1}
	for _, tc := range []struct {
		fastPct   float64
		fastBytes int64
		field     string
	}{
		{fastPct: 1e300, field: "fast_pct"},
		{fastPct: math.MaxFloat64, field: "fast_pct"},
		{fastPct: 1e-9, field: "fast_pct"},
		{fastBytes: 1, field: "fast_bytes"},
	} {
		r := CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastPct: tc.fastPct, FastBytes: tc.fastBytes}.Normalized()
		if err := r.Validate(); err != nil {
			t.Fatalf("%+v: Validate: %v", tc, err)
		}
		_, err := r.spec(o)
		var re *RequestError
		if !errors.As(err, &re) || re.Field != tc.field {
			t.Errorf("%+v: spec error %v, want a %s *RequestError", tc, err, tc.field)
		}
	}
	for _, r := range []CellRequest{
		{Model: "resnet32", Batch: 32, FastPct: 20},
		{Model: "resnet32", Batch: 32, FastBytes: 16 << 20},
		{Model: "resnet32", Batch: 32},
	} {
		if _, err := r.Normalized().spec(o); err != nil {
			t.Errorf("%+v: %v", r, err)
		}
	}
}

func TestSweepRequestValidate(t *testing.T) {
	if err := (SweepRequest{ID: "fig7"}).Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	for _, r := range []SweepRequest{{}, {ID: "fig99"}, {ID: "fig7", Steps: -1}} {
		if err := r.Validate(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("request %+v: want ErrBadRequest, got %v", r, err)
		}
	}
}

func TestPlatformRegistry(t *testing.T) {
	names := Platforms()
	if len(names) < 4 {
		t.Fatalf("want at least the four presets, got %v", names)
	}
	for _, n := range names {
		spec, err := Platform(n)
		if err != nil {
			t.Fatalf("Platform(%q): %v", n, err)
		}
		if spec.Name == "" {
			t.Errorf("platform %q resolves to an unnamed spec", n)
		}
	}
	if _, err := Platform(""); err != nil {
		t.Errorf("empty platform should default to optane: %v", err)
	}
	if _, err := Platform("vax"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown platform: want ErrBadRequest, got %v", err)
	}
}

// TestRunCellDeterministicAndCached runs the same request twice through
// one cache and once through a fresh cache-free Options: all three must
// agree, and the second cached run must be a cache hit, not a recompute.
func TestRunCellDeterministicAndCached(t *testing.T) {
	req := CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastPct: 20, Steps: 2}
	cached := Options{Cache: NewCache(), Workers: 1}
	a, err := RunCell(cached, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(cached, req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second identical request did not hit the plan cache (different *RunStats)")
	}
	if st := cached.Cache.Stats(); st.Hits == 0 {
		t.Errorf("cache stats show no hit after identical request: %+v", st)
	}
	fresh, err := RunCell(Options{NoCache: true, Workers: 1}, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.SteadyStepTime() != fresh.SteadyStepTime() {
		t.Errorf("cached and cache-free runs disagree: %v vs %v",
			a.SteadyStepTime(), fresh.SteadyStepTime())
	}
}

func TestRunCellFastBytes(t *testing.T) {
	o := Options{Cache: NewCache(), Workers: 1}
	small, err := RunCell(o, CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastBytes: 16 << 20, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunCell(o, CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", FastBytes: 512 << 20, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if small.SteadyStepTime() <= big.SteadyStepTime() {
		t.Errorf("16MB fast tier (%v) should be slower than 512MB (%v)",
			small.SteadyStepTime(), big.SteadyStepTime())
	}
}

func TestRunCellInvalid(t *testing.T) {
	_, err := RunCell(Options{NoCache: true}, CellRequest{Model: "resnet32", Batch: 0, Policy: "sentinel"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

func TestRunCellCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCell(Options{NoCache: true, Ctx: ctx},
		CellRequest{Model: "resnet32", Batch: 32, Policy: "sentinel", Steps: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunPlan(t *testing.T) {
	o := Options{Cache: NewCache(), Workers: 1}
	p, err := RunPlan(o, PlanRequest{Model: "resnet32", Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tensors == 0 || p.Tensors != p.ShortLived+p.LongLived {
		t.Errorf("tensor partition broken: %d total, %d short + %d long",
			p.Tensors, p.ShortLived, p.LongLived)
	}
	if p.ShortLived <= p.LongLived {
		t.Errorf("paper's Observation 1 (most tensors short-lived) violated: %d short vs %d long",
			p.ShortLived, p.LongLived)
	}
	if p.PeakMemoryBytes <= 0 || p.ReservedPoolBytes <= 0 || p.ReservedPoolBytes >= p.PeakMemoryBytes {
		t.Errorf("implausible sizes: peak %d, reserved %d", p.PeakMemoryBytes, p.ReservedPoolBytes)
	}
	if p.Faults == 0 || p.ProfiledStepNS == 0 {
		t.Errorf("profiling left no trace: faults %d, step %d ns", p.Faults, p.ProfiledStepNS)
	}
	// Deterministic: a second, cache-free computation must agree.
	q, err := RunPlan(Options{NoCache: true, Workers: 1}, PlanRequest{Model: "resnet32", Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if *p != *q {
		t.Errorf("plan summary not deterministic:\n%+v\n%+v", p, q)
	}
}

// TestRunPlanGPUMatchesSentinelProfile checks that a plan request on the
// GPU platform profiles the way Sentinel-GPU's step 0 does, over pinned
// host memory: resnet200 at batch 128, which Fig. 12 trains, summarizes
// the profile that step records instead of running out of device memory.
func TestRunPlanGPUMatchesSentinelProfile(t *testing.T) {
	got, err := RunPlan(Options{NoCache: true, Workers: 1}, PlanRequest{Model: "resnet200", Batch: 128, Platform: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build("resnet200", 128)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewDefault()
	rt, err := exec.NewRuntime(g, memsys.GPUHM(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunStep(); err != nil {
		t.Fatal(err)
	}
	p := s.Profile()
	want := PlanSummary{
		Model: "resnet200", Batch: 128, Platform: "gpu",
		NumLayers: p.NumLayers, Tensors: len(p.Tensors),
		PeakMemoryBytes: p.PeakMemory, ReservedPoolBytes: p.PeakShortLived,
		ProfiledStepNS: int64(p.StepTime), FaultOverheadNS: int64(p.FaultTime), Faults: p.Faults,
	}
	for i := range p.Tensors {
		if p.Tensors[i].ShortLived() {
			want.ShortLived++
		}
	}
	want.LongLived = want.Tensors - want.ShortLived
	if *got != want {
		t.Errorf("plan summary differs from Sentinel-GPU's step-0 profile:\n got %+v\nwant %+v", *got, want)
	}
}

// TestRunSweepMatchesDirectRun pins the served-sweep guarantee at the
// harness level: RunSweep's table must render byte-identically to a
// direct experiment.Run with the same options — they are the same code
// path, and this test keeps it that way.
func TestRunSweepMatchesDirectRun(t *testing.T) {
	o := Options{Workers: 1, NoCache: true}
	served, err := RunSweep(o, SweepRequest{ID: "fig5", Quick: true, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run("fig5", Options{Workers: 1, NoCache: true, Quick: true, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := served.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("served sweep diverged from direct run:\n--- served ---\n%s--- direct ---\n%s", a.String(), b.String())
	}
	if !strings.Contains(served.String(), "== fig5") {
		t.Errorf("rendered table missing header: %q", served.String())
	}
}
