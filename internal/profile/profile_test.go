package profile

import (
	"reflect"
	"slices"
	"testing"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
	"sentinel/internal/tensor"
)

func collect(t *testing.T, modelName string, batch int) *Profile {
	t.Helper()
	g, err := model.Build(modelName, batch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Collect(g, memsys.OptaneHM())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileMatchesGroundTruth(t *testing.T) {
	g, err := model.Build("resnet32", 32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Collect(g, memsys.OptaneHM())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tensors) != len(g.Tensors) {
		t.Fatalf("profiled %d of %d tensors", len(p.Tensors), len(g.Tensors))
	}
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		truth := g.Tensors[i]
		// Observed lifetimes match the graph's.
		if ts.AllocLayer != truth.AllocLayer || ts.FreeLayer != truth.FreeLayer {
			t.Fatalf("%s: observed lifetime [%d,%d], truth [%d,%d]",
				ts.Name, ts.AllocLayer, ts.FreeLayer, truth.AllocLayer, truth.FreeLayer)
		}
		// Observed access counts match ground truth.
		if int(ts.Accesses) != truth.TotalAccesses() {
			t.Fatalf("%s: observed %d accesses, truth %d", ts.Name, ts.Accesses, truth.TotalAccesses())
		}
		if ts.ShortLived() != truth.ShortLived() {
			t.Fatalf("%s: short-lived classification diverges", ts.Name)
		}
	}
}

func TestProfilingOverheadVisible(t *testing.T) {
	p := collect(t, "resnet32", 64)
	if p.Faults == 0 {
		t.Fatal("profiling took no faults")
	}
	if p.FaultTime <= 0 {
		t.Fatal("no fault overhead recorded")
	}
	// The paper reports up to 5x slowdown of the profiled step; it must
	// be material but bounded.
	slowdown := float64(p.StepTime) / float64(p.StepTime-p.FaultTime)
	if slowdown < 1.2 || slowdown > 8 {
		t.Fatalf("profiled-step slowdown %.1fx out of plausible range", slowdown)
	}
}

func TestLayerTimesExcludeFaults(t *testing.T) {
	p := collect(t, "resnet32", 64)
	var sum int64
	for _, lt := range p.LayerTime {
		if lt < 0 {
			t.Fatal("negative layer time")
		}
		sum += int64(lt)
	}
	if sum <= 0 {
		t.Fatal("no layer times")
	}
	// Adjusted layer times should sum to roughly step - faults.
	want := int64(p.StepTime - p.FaultTime)
	if sum > want*11/10 {
		t.Fatalf("layer times %d exceed fault-free step %d", sum, want)
	}
}

func TestLongLivedSorted(t *testing.T) {
	p := collect(t, "resnet32", 64)
	ids := p.LongLived()
	if len(ids) == 0 {
		t.Fatal("no long-lived tensors")
	}
	for i := 1; i < len(ids); i++ {
		a, b := p.ByID(ids[i-1]), p.ByID(ids[i])
		if a.Accesses < b.Accesses || a.Accesses == b.Accesses && ids[i-1] >= ids[i] {
			t.Fatalf("long-lived list not sorted by descending access count, then id: %d (%d) before %d (%d)",
				ids[i-1], a.Accesses, ids[i], b.Accesses)
		}
	}
	for _, id := range ids {
		if p.ByID(id).ShortLived() {
			t.Fatal("short-lived tensor in long-lived list")
		}
	}
	long := 0
	for i := range p.Tensors {
		if !p.Tensors[i].ShortLived() {
			long++
		}
	}
	if len(ids) != long {
		t.Fatalf("%d long-lived ids, want %d", len(ids), long)
	}
}

// TestLongLivedOrder covers ties and access counts too large to pack
// into a sort key, which take the comparator path.
func TestLongLivedOrder(t *testing.T) {
	for _, big := range []int64{9, 1 << 40} {
		p := &Profile{Tensors: []TensorStat{
			{ID: 0, Preallocated: true, Accesses: 5},
			{ID: 1, AllocLayer: 2, FreeLayer: 2, Accesses: 100},
			{ID: 2, AllocLayer: 1, FreeLayer: 3, Accesses: big},
			{ID: 3, AllocLayer: 0, FreeLayer: 1, Accesses: 5},
			{ID: 4, Preallocated: true},
		}}
		if got, want := p.LongLived(), []tensor.ID{2, 0, 3, 4}; !slices.Equal(got, want) {
			t.Errorf("accesses %d: LongLived = %v, want %v", big, got, want)
		}
	}
	if got := (&Profile{}).LongLived(); got != nil {
		t.Errorf("empty profile: LongLived = %v, want nil", got)
	}
}

func TestCharacterizeObservations(t *testing.T) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Characterize(g, memsys.OptaneHM())
	if err != nil {
		t.Fatal(err)
	}
	// Observation 1: a large number of small, short-lived tensors.
	if c.ShortLivedFraction() < 0.75 {
		t.Errorf("short-lived fraction %.2f", c.ShortLivedFraction())
	}
	if c.SmallFraction() < 0.80 {
		t.Errorf("sub-page fraction %.2f", c.SmallFraction())
	}
	// Observation 2: cold tensors dominate bytes; the hot set is small.
	if c.TensorBytes[BucketCold] == 0 {
		t.Error("no cold tensor bytes")
	}
	if c.TensorBytes[BucketHot] >= c.TensorBytes[BucketCold]/10 {
		t.Errorf("hot set too large: %d vs cold %d", c.TensorBytes[BucketHot], c.TensorBytes[BucketCold])
	}
	// Observation 3: page-level profiling misattributes cold bytes.
	if c.FalseSharingBytes == 0 {
		t.Error("no page-level false sharing observed")
	}
	if c.PageBytes[BucketCold] >= c.TensorBytes[BucketCold] {
		t.Error("page-level cold bytes should be below tensor-level cold bytes")
	}
	if c.String() == "" {
		t.Error("empty report")
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]AccessBucket{
		0: BucketZero, 1: BucketCold, 10: BucketCold,
		11: BucketWarm, 100: BucketWarm, 101: BucketHot,
	}
	for n, want := range cases {
		if got := BucketOf(n); got != want {
			t.Errorf("BucketOf(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestProfilingNeverUsesFastMemory(t *testing.T) {
	g, err := model.Build("lstm", 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Collect(g, memsys.OptaneHM())
	if err != nil {
		t.Fatal(err)
	}
	// Sec. III-A: profiling happens on slow memory only.
	if p.PeakMemory <= 0 {
		t.Fatal("no peak recorded")
	}
	// PeakShortLived feeds the reserve; it must be positive and below
	// the total peak.
	if p.PeakShortLived <= 0 || p.PeakShortLived >= p.PeakMemory {
		t.Fatalf("short-lived peak %d vs peak %d", p.PeakShortLived, p.PeakMemory)
	}
}

func TestProfileNoisePerturbsObservations(t *testing.T) {
	g, err := model.Build("resnet32", 32)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Collect(g, memsys.OptaneHM())
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Collect(g, memsys.OptaneHM(),
		exec.WithChaos(chaos.New(chaos.Config{Seed: 11, ProfileNoise: 0.5})))
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range noisy.Tensors {
		ns, cs := &noisy.Tensors[i], &clean.Tensors[i]
		if ns.Accesses != cs.Accesses {
			changed++
		}
		// Lifetimes are observed from (de)allocation events, which the
		// noise must not touch.
		if ns.AllocLayer != cs.AllocLayer || ns.FreeLayer != cs.FreeLayer {
			t.Fatalf("%s: noise changed the observed lifetime", ns.Name)
		}
		// Which layers access the tensor is structural; only the counts
		// jitter.
		if len(ns.PerLayer) != len(cs.PerLayer) {
			t.Fatalf("%s: noise changed the access-layer set", ns.Name)
		}
		for j := range ns.PerLayer {
			if ns.PerLayer[j].Layer != cs.PerLayer[j].Layer {
				t.Fatalf("%s: noise moved an access to another layer", ns.Name)
			}
		}
		// The graph's ground truth must stay pristine: the noised
		// profile misrepresents the workload, it does not change it.
		if ns.Accesses > 0 && int(cs.Accesses) != g.Tensors[i].TotalAccesses() {
			t.Fatalf("%s: noise leaked into the graph's access counts", ns.Name)
		}
	}
	if changed == 0 {
		t.Fatal("50% profile noise left every access count unchanged")
	}
	// Identical seeds reproduce the same noisy profile.
	again, err := Collect(g, memsys.OptaneHM(),
		exec.WithChaos(chaos.New(chaos.Config{Seed: 11, ProfileNoise: 0.5})))
	if err != nil {
		t.Fatal(err)
	}
	for i := range noisy.Tensors {
		if noisy.Tensors[i].Accesses != again.Tensors[i].Accesses {
			t.Fatalf("%s: same seed produced different noise", noisy.Tensors[i].Name)
		}
	}
}

// TestBlendSortsItsOwnList checks that a blended profile keeps every
// field of the old one but its tensors, and ranks its long-lived tensors
// by the blended counts while the old profile's memoized list stays as
// it was.
func TestBlendSortsItsOwnList(t *testing.T) {
	p := collect(t, "resnet32", 32)
	old := slices.Clone(p.LongLived())
	coldest := old[len(old)-1]
	q := Blend(p, &Observation{Accesses: map[tensor.ID]int64{coldest: 1 << 40}}, 0)
	if got := q.LongLived()[0]; got != coldest {
		t.Errorf("blended hottest tensor %d, want %d", got, coldest)
	}
	if !slices.Equal(p.LongLived(), old) {
		t.Error("blending changed the old profile's long-lived list")
	}
	pv, qv := reflect.ValueOf(p).Elem(), reflect.ValueOf(q).Elem()
	for i := 0; i < pv.NumField(); i++ {
		f := pv.Type().Field(i)
		if f.IsExported() && f.Name != "Tensors" && !reflect.DeepEqual(pv.Field(i).Interface(), qv.Field(i).Interface()) {
			t.Errorf("Blend changed %s", f.Name)
		}
	}
}
