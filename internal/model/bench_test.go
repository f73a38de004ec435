package model

import "testing"

// BenchmarkModelBuild measures graph construction, which every Table V
// probe and every uncached cell pays: resnet200 and bert-large at batch
// 512, built fresh (not through BuildShared's memo) each iteration.
func BenchmarkModelBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"resnet200", "bert-large"} {
			if _, err := Build(name, 512); err != nil {
				b.Fatal(err)
			}
		}
	}
}
