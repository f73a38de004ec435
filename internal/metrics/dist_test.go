package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestDistStatsLifecycle(t *testing.T) {
	var s DistStats

	// Grant two shards to w1, one to w2.
	s.LeaseGranted("w1")
	s.LeaseGranted("w1")
	s.LeaseGranted("w2")

	snap := s.Snapshot()
	if snap.Granted != 3 {
		t.Fatalf("granted = %d, want 3", snap.Granted)
	}
	want := []WorkerInFlight{{"w1", 2}, {"w2", 1}}
	if len(snap.InFlight) != len(want) {
		t.Fatalf("in-flight = %+v, want %+v", snap.InFlight, want)
	}
	for i, g := range want {
		if snap.InFlight[i] != g {
			t.Fatalf("in-flight[%d] = %+v, want %+v", i, snap.InFlight[i], g)
		}
	}

	// w2 dies mid-shard; its shard is reassigned to w1 and completes,
	// then w1 drains its own two shards.
	s.LeaseExpired("w2")
	s.WorkerDied("w2")
	s.Reassigned()
	s.LeaseGranted("w1")
	s.LeaseDone("w1")
	s.LeaseDone("w1")
	s.LeaseDone("w1")

	snap = s.Snapshot()
	if snap.Granted != 4 || snap.Expired != 1 || snap.Reassigned != 1 || snap.WorkerDeaths != 1 {
		t.Fatalf("snapshot = %+v, want granted=4 expired=1 reassigned=1 deaths=1", snap)
	}
	if len(snap.InFlight) != 0 {
		t.Fatalf("in-flight after drain = %+v, want empty", snap.InFlight)
	}
	if got := snap.String(); !strings.Contains(got, "4 leases granted") || !strings.Contains(got, "1 worker death(s)") {
		t.Fatalf("String() = %q", got)
	}
}

func TestDistStatsConcurrent(t *testing.T) {
	// Exercised under -race in CI: concurrent grants/releases across
	// workers must not corrupt the counters.
	var s DistStats
	var wg sync.WaitGroup
	for _, w := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.LeaseGranted(w)
				if i%3 == 0 {
					s.LeaseExpired(w)
					s.Reassigned()
				} else {
					s.LeaseDone(w)
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Granted != 400 {
		t.Fatalf("granted = %d, want 400", snap.Granted)
	}
	if len(snap.InFlight) != 0 {
		t.Fatalf("in-flight after drain = %+v, want empty", snap.InFlight)
	}
}
