package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkMergeJournal measures the coordinator's merge of one worker
// journal: the checksum-verified decode of every record plus a cache
// seed per cell. The image is the journal of a whole quick fig7 run, so
// its records carry real per-layer slices and bandwidth traces; it is
// recorded once outside the timer and merged into a fresh cache each
// iteration.
func BenchmarkMergeJournal(b *testing.B) {
	dir := b.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run("fig7", Options{Quick: true, Steps: 2, Journal: j}); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		b.Fatal(err)
	}
	want := j.Appended()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, skipped, err := MergeJournal(NewCache(), image)
		if err != nil || restored != want || skipped != 0 {
			b.Fatalf("merge: restored %d of %d, skipped %d, err %v", restored, want, skipped, err)
		}
	}
}
