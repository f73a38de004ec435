// Benchmarks: one per paper table/figure, regenerating the experiment and
// reporting the simulated training-step times as custom metrics. Run with
//
//	go test -bench=. -benchmem
//
// These wrap the experiment harness so `go test -bench` reproduces the
// whole evaluation; cmd/sentinel-bench prints the tables themselves.
package sentinel_test

import (
	"testing"

	"sentinel"
)

// benchOpts keeps per-iteration cost bounded; the experiments themselves
// are deterministic, so one iteration is representative.
func benchOpts() sentinel.ExperimentOptions {
	return sentinel.ExperimentOptions{Steps: 5, Quick: true}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := sentinel.Experiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkCharacterization(b *testing.B) { benchExperiment(b, "characterization") }
func BenchmarkFig5(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkFig7(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)            { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkTable1(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)           { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)           { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)           { benchExperiment(b, "table5") }

// benchStep measures the simulator's own cost of one training step of
// model at batch on machine under policy, after warm untimed steps — the
// engine's throughput, not the simulated time. fastDiv, if positive,
// sizes the fast tier at the graph's peak memory divided by fastDiv.
func benchStep(b *testing.B, model string, batch int, machine sentinel.Machine, fastDiv int64, policy string, warm int) {
	b.Helper()
	g, err := sentinel.BuildModel(model, batch)
	if err != nil {
		b.Fatal(err)
	}
	if fastDiv > 0 {
		machine = machine.WithFastSize(g.PeakMemory() / fastDiv)
	}
	p, err := sentinel.NewPolicy(policy)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := sentinel.NewRuntime(g, machine, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.RunSteps(warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.RunStep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSentinelStep measures one managed Sentinel step (resnet32,
// 20% fast memory), after the profiling and first managed steps.
func BenchmarkSentinelStep(b *testing.B) {
	benchStep(b, "resnet32", 128, sentinel.OptaneHM(), 5, "sentinel", 2)
}

// BenchmarkSentinelGPUStep measures one Sentinel-GPU step of resnet200 at
// batch 96 on the GPU preset, where every step runs the farthest-next-use
// evictor (MakeRoom).
func BenchmarkSentinelGPUStep(b *testing.B) {
	benchStep(b, "resnet200", 96, sentinel.GPUHM(), 0, "sentinel-gpu", 3)
}

// BenchmarkUMStep measures one Unified Memory step of bert-large at batch
// 32 on the GPU preset, where every step runs the LRU evictor.
func BenchmarkUMStep(b *testing.B) {
	benchStep(b, "bert-large", 32, sentinel.GPUHM(), 0, "um", 3)
}

// BenchmarkProfilingStep measures the cost of the tensor-level profiling
// mechanism itself.
func BenchmarkProfilingStep(b *testing.B) {
	g, err := sentinel.BuildModel("resnet32", 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sentinel.CollectProfile(g, sentinel.OptaneHM()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBuild measures graph construction.
func BenchmarkModelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sentinel.BuildModel("bert-large", 32); err != nil {
			b.Fatal(err)
		}
	}
}
