package metrics

import (
	"strings"
	"sync"
	"testing"

	"sentinel/internal/simtime"
)

func TestStepStats(t *testing.T) {
	s := &StepStats{Step: 3, Duration: 100 * simtime.Millisecond, MigratedIn: 10, MigratedOut: 20}
	if s.MigratedTotal() != 30 {
		t.Fatalf("migrated total %d", s.MigratedTotal())
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestRunStats(t *testing.T) {
	r := &RunStats{Policy: "p", Model: "m", Batch: 50}
	if r.SteadyStep() != nil || r.SteadyStepTime() != 0 || r.Throughput() != 0 {
		t.Fatal("empty run should report zeros")
	}
	r.Steps = append(r.Steps,
		&StepStats{Step: 0, Duration: 2 * simtime.Second},
		&StepStats{Step: 1, Duration: simtime.Second},
	)
	if r.SteadyStep().Step != 1 {
		t.Fatal("steady step should be the last one")
	}
	if r.SteadyStepTime() != simtime.Second {
		t.Fatal("steady time wrong")
	}
	if got := r.Throughput(); got != 50 {
		t.Fatalf("throughput %v, want 50 samples/s", got)
	}
	if r.TotalTime() != 3*simtime.Second {
		t.Fatal("total time wrong")
	}
}

func TestSweepProgress(t *testing.T) {
	var buf strings.Builder
	p := NewSweepProgress(&buf)
	p.AddCells(3)
	p.CellDone()
	p.AddCells(2)
	p.CellDone()
	if done, total := p.Snapshot(); done != 2 || total != 5 {
		t.Fatalf("snapshot %d/%d, want 2/5", done, total)
	}
	out := buf.String()
	if !strings.Contains(out, "\r1/3 cells") || !strings.Contains(out, "\r2/5 cells") {
		t.Fatalf("live line wrong: %q", out)
	}
	if strings.Contains(out, "\n") {
		t.Fatalf("live line terminated early: %q", out)
	}
	p.Break()
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("Break should terminate the live line")
	}
	before := len(buf.String())
	p.Break() // idempotent: nothing on screen now
	if len(buf.String()) != before {
		t.Fatal("second Break wrote output")
	}
	if s := p.Summary(); !strings.Contains(s, "2/5 cells") {
		t.Fatalf("summary %q", s)
	}
}

// TestSweepProgressConcurrent exercises the counters from many goroutines;
// meaningful under -race.
func TestSweepProgressConcurrent(t *testing.T) {
	p := NewSweepProgress(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.AddCells(1)
				p.CellDone()
			}
		}()
	}
	wg.Wait()
	if done, total := p.Snapshot(); done != 400 || total != 400 {
		t.Fatalf("snapshot %d/%d, want 400/400", done, total)
	}
}

func TestCacheStatsString(t *testing.T) {
	s := CacheStats{Hits: 7, Misses: 3, Waits: 2}
	if got := s.String(); got != "7 hits, 3 misses, 2 singleflight waits" {
		t.Fatalf("stats rendered %q", got)
	}
}
