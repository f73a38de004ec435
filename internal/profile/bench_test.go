package profile

import (
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// BenchmarkProfileCollect measures one profiling pass: a fresh runtime
// that poisons every page and replays a step of resnet32 at batch 128 on
// the Optane platform with the fast tier at 20% of peak, counting each
// tensor's accesses from the faults. The graph is built once, outside
// the timer.
func BenchmarkProfileCollect(b *testing.B) {
	g, err := model.Build("resnet32", 128)
	if err != nil {
		b.Fatal(err)
	}
	spec := memsys.OptaneHM().WithFastSize(int64(0.2 * float64(g.PeakMemory())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(g, spec); err != nil {
			b.Fatal(err)
		}
	}
}
