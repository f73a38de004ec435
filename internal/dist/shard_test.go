package dist

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"sentinel/internal/experiment"
)

// fig7Task is one quick shard small enough for unit tests that really
// run it.
func fig7Task() Task {
	return Task{Exps: []string{"fig7"}, Shard: 0, Shards: 2, Quick: true, Steps: 2}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		want string // "" means valid
	}{
		{"valid", fig7Task(), ""},
		{"no shards", Task{Exps: []string{"fig7"}}, "shards must be >= 1, got 0"},
		{"shard out of range", Task{Exps: []string{"fig7"}, Shard: 3, Shards: 2}, "shard must be in [0, 2), got 3"},
		{"negative shard", Task{Exps: []string{"fig7"}, Shard: -1, Shards: 2}, "shard must be in [0, 2), got -1"},
		{"no exps", Task{Shards: 2}, "exps is required"},
		{"unknown exp", Task{Exps: []string{"fig99"}, Shards: 2}, `unknown experiment "fig99"`},
	}
	for _, tc := range cases {
		err := tc.task.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// closeAfterFirst closes the shard journal once it holds one appended
// record, so every later append fails.
type closeAfterFirst struct{ j *experiment.Journal }

func (c closeAfterFirst) AddCells(int) {}

func (c closeAfterFirst) CellDone() {
	if c.j.Appended() == 1 {
		c.j.Close()
	}
}

// TestShardRunReportsJournalLoss pins that a shard whose journal lost
// records fails, both from the body and through a lease, instead of
// reporting a short journal as complete.
func TestShardRunReportsJournalLoss(t *testing.T) {
	sh, err := OpenShard(t.TempDir(), fig7Task())
	if err != nil {
		t.Fatal(err)
	}
	sh.Progress = closeAfterFirst{sh.Journal}
	err = sh.Run(context.Background(), 1)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run = %v, want the journal's append error", err)
	}
	if jerr := sh.Journal.Err(); jerr == nil || err.Error() != "journal: "+jerr.Error() {
		t.Fatalf("Run = %v, journal error %v", err, jerr)
	}

	gate := make(chan struct{})
	l, err := StartLease(fig7Task(), 1, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Drop()
	l.shard.Progress = closeAfterFirst{l.shard.Journal}
	close(gate)
	<-l.done
	st := l.Status()
	jerr := l.shard.Journal.Err()
	if st.State != ShardFailed || jerr == nil || st.Err != "journal: "+jerr.Error() {
		t.Fatalf("lease status %+v, journal error %v; want failed with the journal error", st, jerr)
	}
}

// TestLeaseLatchesFirstVerdict pins the terminal-state latch: a lease
// that completed stays completed when a cancel arrives late, and a
// lease cancelled first keeps the cancel's cause.
func TestLeaseLatchesFirstVerdict(t *testing.T) {
	l, err := StartLease(fig7Task(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Drop()
	<-l.done
	l.Cancel("lease released")
	st := l.Status()
	if st.State != ShardCompleted || st.Err != "" || st.Cells == 0 {
		t.Fatalf("completed lease after a late cancel: %+v", st)
	}
	image, err := l.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := experiment.MergeJournal(experiment.NewCache(), image); err != nil || n != st.Cells {
		t.Fatalf("journal holds %d cell(s) (err %v), status reports %d", n, err, st.Cells)
	}

	l, err = StartLease(fig7Task(), 1, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Drop()
	l.Cancel("worker draining")
	<-l.done
	if st := l.Status(); st.State != ShardFailed || st.Err != "worker draining" || st.Cells != 0 {
		t.Fatalf("cancelled lease: %+v", st)
	}
}

// TestLeaseDirReclaimedWithoutWaiter pins the goroleak fix: no
// goroutine waits on a lease's run. The shard directory is removed by
// whichever of "run stopped" and "lease dropped" happens second, and
// never while the other side still needs it.
func TestLeaseDirReclaimedWithoutWaiter(t *testing.T) {
	exists := func(l *Lease) bool {
		_, err := os.Stat(l.shard.dir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return err == nil
	}

	t.Run("release before sweep ends", func(t *testing.T) {
		l, err := StartLease(fig7Task(), 1, make(chan struct{}))
		if err != nil {
			t.Fatal(err)
		}
		l.Drop()
		// The run still holds the journal: the directory must survive
		// until the run observes cancellation and stops.
		if !exists(l) {
			t.Fatal("dir reclaimed while the run still holds it")
		}
		l.Cancel("lease released")
		<-l.done
		if exists(l) {
			t.Fatal("dir not reclaimed after the run stopped")
		}
	})

	t.Run("sweep ends before expiry", func(t *testing.T) {
		l, err := StartLease(fig7Task(), 1, make(chan struct{}))
		if err != nil {
			t.Fatal(err)
		}
		l.Cancel("worker draining")
		<-l.done
		// Not dropped yet: the journal must stay readable for status
		// polls.
		if !exists(l) {
			t.Fatal("dir reclaimed before the lease was dropped")
		}
		if _, err := l.Journal(); err != nil {
			t.Fatal(err)
		}
		l.Drop()
		if exists(l) {
			t.Fatal("dir not reclaimed after the lease was dropped")
		}
	})
}
