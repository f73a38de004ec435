package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tinySize is a segment small enough to run every workload, traced and
// untraced, in a few seconds.
func tinySize() size {
	return size{sweepIDs: []string{"table1", "table2", "fig9"}, rounds: 2, cells: 10, requests: 40}
}

func tinyRun(t *testing.T, w workload, seed int64, traced bool) *report {
	t.Helper()
	rep, err := execute(w, config{seed: seed, traced: traced, root: "..", size: tinySize()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s (traced %v): correct %v, %d of %d ops failed: %v",
			w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
	}
	if rep.Segments != minSegments {
		t.Errorf("%s: %d segments with no time budget, want %d", w.name, rep.Segments, minSegments)
	}
	return rep
}

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func names(defs []metricDef) []string {
	var ns []string
	for _, d := range defs {
		ns = append(ns, d.Name)
	}
	sort.Strings(ns)
	return ns
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestSpecMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the code runs and emits, with the same units, directions and
// bounds.
func TestSpecMatchesCode(t *testing.T) {
	s := loadTestSpec(t)
	var got, want []string
	for _, w := range s.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads:\n got %q\nwant %q", got, want)
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(s.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", s.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(s.PerLayer, strip(perLayer())) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", s.PerLayer, strip(perLayer()))
	}
}

// TestWorkloadsEmitExactlyTheSpecMetrics runs every workload at tiny
// scale, untraced and traced. Each run must pass its output checks and
// print exactly BENCHMARK.json's metrics; a traced run must measure every
// per-layer metric its workload owns and no other (paper-sweep: for the
// experiments the tiny sweep runs); and both runs of one seed must
// simulate the same outputs.
func TestWorkloadsEmitExactlyTheSpecMetrics(t *testing.T) {
	s := loadTestSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, 3, false)
			if got, want := keys(plain.Metrics), names(s.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			traced := tinyRun(t, w, 3, true)
			if got, want := keys(traced.Metrics), names(s.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			tinyIDs := map[string]bool{}
			for _, id := range tinySize().sweepIDs {
				tinyIDs["experiment."+id+"_ms"] = true
			}
			var owned []string
			for _, d := range perLayer() {
				perID := strings.HasSuffix(d.Name, "_ms")
				for _, o := range d.owners {
					if o == w.name && (o != paperSweep || !perID || tinyIDs[d.Name]) {
						owned = append(owned, d.Name)
					}
				}
			}
			sort.Strings(owned)
			if got := keys(traced.measured); !reflect.DeepEqual(got, owned) {
				t.Errorf("traced run measured %v, want %v", got, owned)
			}
			if plain.SimDigest == "" || plain.SimDigest != traced.SimDigest {
				t.Errorf("sim_digest %q untraced, %q traced: one seed must simulate the same outputs",
					plain.SimDigest, traced.SimDigest)
			}
		})
	}
}

// TestSeedsDriveInputs: the same seed generates the same inputs and a
// different seed different ones. paper-sweep's input is the fixed
// experiment registry.
func TestSeedsDriveInputs(t *testing.T) {
	for name, inputs := range map[string]func(seed int64) any{
		steadySteps: func(seed int64) any { return steadyCells(seed) },
		coldPlan:    func(seed int64) any { return coldCells(seed, 100) },
		serveMixed:  func(seed int64) any { return serveRequests(seed, 100) },
	} {
		a := inputs(11)
		if !reflect.DeepEqual(a, inputs(11)) {
			t.Errorf("%s: seed 11 generated different inputs on two calls", name)
		}
		if reflect.DeepEqual(a, inputs(12)) {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", name)
		}
	}
}

// TestServeRequestMix: the generator emits hotKeys distinct hot keys and
// exactly the advertised shares of hot and fresh requests and of plan
// requests among each; timed requests marked Hot are hot keys, and every
// other one carries a key sent nowhere else.
func TestServeRequestMix(t *testing.T) {
	tr := serveRequests(5, 2000)
	hot := map[string]bool{}
	var hotPlans int
	for _, q := range tr.hot {
		hot[q.key()] = true
		if q.Path == "/v1/plan" {
			hotPlans++
		}
	}
	if len(hot) != hotKeys || len(tr.hot) != hotKeys || hotPlans != 26 {
		t.Errorf("%d hot keys (%d distinct), %d of them plans; want %d and 26",
			len(tr.hot), len(hot), hotPlans, hotKeys)
	}
	count := map[string]int{}
	var hotReqs, fresh, freshPlans int
	for _, q := range tr.reqs {
		count[q.key()]++
		if q.Hot != hot[q.key()] {
			t.Fatalf("%s: Hot=%v, but hot key %v", q.key(), q.Hot, hot[q.key()])
		}
		if q.Hot {
			hotReqs++
			continue
		}
		fresh++
		if q.Path == "/v1/plan" {
			freshPlans++
		}
	}
	if len(tr.reqs) != 2000 || hotReqs != 1800 || fresh != 200 || freshPlans != 80 {
		t.Errorf("%d requests: %d hot, %d fresh with %d plans; want 2000: 1800, 200 with 80",
			len(tr.reqs), hotReqs, fresh, freshPlans)
	}
	for _, q := range tr.reqs {
		if !q.Hot && count[q.key()] != 1 {
			t.Errorf("fresh key %s sent %d times", q.key(), count[q.key()])
		}
	}
}

// TestCompareVerdicts: compare flags a regression beyond the bound,
// leaves a noisy metric unresolved, passes a steady one, and fails on a
// sim_digest that differs for one seed.
func TestCompareVerdicts(t *testing.T) {
	s := &spec{Workloads: []workloadDef{{Name: "w"}}, EndToEnd: []metricDef{
		{Name: "ops_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "op_cpu_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	side := func(digest string, ops, lat []float64) []report {
		var reps []report
		for i := range ops {
			reps = append(reps, report{Workload: "w", Seed: int64(i), SimDigest: digest,
				result: result{Metrics: map[string]metricValue{
					"ops_per_cpu_s": {Value: ops[i]}, "op_cpu_ms_p50": {Value: lat[i]}}}})
		}
		return reps
	}
	steady := []float64{100, 101, 99, 100, 100}
	var out bytes.Buffer
	if st := compare(&out, s, side("d", steady, steady), side("d", steady, steady)); st != 0 {
		t.Errorf("identical sides: status %d\n%s", st, out.String())
	}
	out.Reset()
	slower := []float64{80, 81, 79, 80, 80}
	if st := compare(&out, s, side("d", steady, steady), side("d", slower, steady)); st != 1 ||
		!strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("20%% fewer ops/s: status %d\n%s", st, out.String())
	}
	out.Reset()
	noisy := []float64{60, 140, 100, 70, 130}
	compare(&out, s, side("d", steady, steady), side("d", steady, noisy))
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy latency not unresolved:\n%s", out.String())
	}
	out.Reset()
	if st := compare(&out, s, side("d", steady, steady), side("e", steady, steady)); st != 1 ||
		!strings.Contains(out.String(), "sim_digest differs") {
		t.Errorf("digest mismatch: status %d\n%s", st, out.String())
	}
}

// TestTimersLeaveOutTheYardstick: a yardstick chunk run inside a timed
// stretch counts in the host's speed and not in the stretch's time.
func TestTimersLeaveOutTheYardstick(t *testing.T) {
	resetYardstick()
	c0 := cpuNow()
	tm := startTimer()
	for cpuNow()-c0 < 2*yardstickEvery {
	}
	sampleHostSpeed()
	l := tm.lap()
	total := cpuNow() - c0
	if yard.chunks != 1 || yard.cpu <= 0 {
		t.Fatalf("%d chunks of %v, want one", yard.chunks, yard.cpu)
	}
	if l.cpu <= 0 || l.cpu+yard.cpu > total {
		t.Errorf("timed %v plus the chunk's %v exceeds the %v that passed", l.cpu, yard.cpu, total)
	}
	if s := hostSpeed(); s <= 0 || s != float64(yardstickNominal)/float64(yard.cpu) {
		t.Errorf("host speed %v from one chunk of %v", s, yard.cpu)
	}
}

// TestChromeTrace: a traced run's spans export as Chrome trace events
// that nest under their op's root span.
func TestChromeTrace(t *testing.T) {
	w, _ := workloadByName(coldPlan)
	rep := tinyRun(t, w, 4, true)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rep.spans.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		byName[e.Name]++
		if e.Name != "cold-plan.cell" && e.Args["parent"] != "cold-plan.cell" {
			t.Errorf("%s has parent %v, want cold-plan.cell", e.Name, e.Args["parent"])
		}
	}
	for _, n := range []string{"cold-plan.cell", "experiment.RunCell", "model.Build", "profile.Collect",
		"core.BuildPlan", "exec.NewRuntime", "exec.RunStep/profiled", "exec.RunStep/managed"} {
		if byName[n] == 0 {
			t.Errorf("no %s span in %v", n, byName)
		}
	}
	var self float64
	for _, st := range rep.SelfMS {
		if st.MS < 0 {
			t.Errorf("negative self time %+v", st)
		}
		self += st.MS
	}
	if self <= 0 {
		t.Errorf("self times sum to %v", self)
	}
}
