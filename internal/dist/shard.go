package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sentinel/internal/experiment"
)

// This file is the one shard-lease runtime. A shard attempt owns a
// directory holding its journal, the attempt's only product, and runs
// against a private cache replayed from it (a shared cache would serve
// cells without journaling them). `sentinel-sweep -worker` runs a Shard
// in a LocalWorker's directory; sentinel-serve holds in-process Leases.

// Validate checks a task before any work starts: a real partition, and
// a non-empty list of known experiments.
func (t Task) Validate() error {
	if t.Shards < 1 {
		return fmt.Errorf("shards must be >= 1, got %d", t.Shards)
	}
	if t.Shard < 0 || t.Shard >= t.Shards {
		return fmt.Errorf("shard must be in [0, %d), got %d", t.Shards, t.Shard)
	}
	if len(t.Exps) == 0 {
		return errors.New("exps is required")
	}
	for _, id := range t.Exps {
		if !experiment.Known(id) {
			return fmt.Errorf("unknown experiment %q (known: %v)", id, experiment.IDs())
		}
	}
	return nil
}

// makeShardDir creates a fresh attempt directory under parent ("" means
// the system temp dir) and writes seed, if any, as its journal. On
// error nothing is left behind.
func makeShardDir(parent, pattern string, seed []byte) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", fmt.Errorf("creating shard dir: %w", err)
	}
	if len(seed) > 0 {
		if err := os.WriteFile(filepath.Join(dir, experiment.JournalFile), seed, 0o644); err != nil {
			os.RemoveAll(dir)
			return "", fmt.Errorf("seeding journal: %w", err)
		}
	}
	return dir, nil
}

// readJournal returns the journal image in dir; nil before the journal
// file exists.
func readJournal(dir string) ([]byte, error) {
	image, err := os.ReadFile(filepath.Join(dir, experiment.JournalFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("reading shard journal: %w", err)
	}
	return image, nil
}

// Shard is the shard body: a task, its open journal, and the private
// cache replayed from it.
type Shard struct {
	task Task
	// Journal receives every completed in-shard cell.
	Journal *experiment.Journal
	// Replayed is how many cells the journal held when it was opened.
	Replayed int
	// Progress, when non-nil, observes cells as they complete.
	Progress experiment.Progress

	dir   string
	cache *experiment.Cache
}

// OpenShard opens the journal in dir and replays it into a private
// cache, so a reassigned shard resumes from its predecessor's salvage
// instead of recomputing. A seed that is not a journal image wraps
// experiment.ErrNotJournal.
func OpenShard(dir string, t Task) (*Shard, error) {
	j, err := experiment.OpenJournal(dir)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	cache := experiment.NewCache()
	replayed, _, err := j.Replay(cache)
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("replaying seed journal: %w", err)
	}
	return &Shard{task: t, Journal: j, Replayed: replayed, dir: dir, cache: cache}, nil
}

// Run runs the task's experiments in order on a pool of workers, then
// closes the journal. It fails when ctx is cancelled before the last
// experiment ends and when the journal lost a record, so a nil error
// means the journal holds every in-shard cell.
func (s *Shard) Run(ctx context.Context, workers int) (err error) {
	defer func() {
		if cerr := s.Journal.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("journal: %w", cerr)
		}
	}()
	o := experiment.Options{
		Steps: s.task.Steps, Quick: s.task.Quick, Workers: workers,
		Cache: s.cache, Journal: s.Journal, Progress: s.Progress,
		Shard: experiment.ShardPlan{Count: s.task.Shards, Index: s.task.Shard},
	}
	if ctx.Done() != nil {
		o.Ctx = ctx // an uncancellable context needs no per-cell watchdog
	}
	for _, id := range s.task.Exps {
		if ctx.Err() != nil {
			break
		}
		if _, err := experiment.Run(id, o); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if err := s.Journal.Err(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Lease is a shard attempt run in-process. Its state latches: the first
// verdict (completed, or failed with a cause) is final. Its directory
// is removed by whichever comes second of "run stopped" and "lease
// dropped", so no goroutine waits on the run: a wedged run strands
// nothing, and an undropped lease keeps its journal readable.
type Lease struct {
	shard  *Shard
	cancel context.CancelCauseFunc
	done   chan struct{} // closed once the run has stopped

	mu               sync.Mutex
	state            string // ShardRunning, ShardCompleted or ShardFailed
	errMsg           string
	stopped, dropped bool
}

// StartLease creates a shard directory seeded with t.Seed, opens it,
// and starts running t on a pool of workers. gate, when non-nil, holds
// the run until it is closed or the lease is cancelled. On error
// nothing is left behind.
func StartLease(t Task, workers int, gate <-chan struct{}) (*Lease, error) {
	dir, err := makeShardDir("", "sentinel-serve-shard-", t.Seed)
	if err != nil {
		return nil, err
	}
	sh, err := OpenShard(dir, t)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	l := &Lease{shard: sh, cancel: cancel, done: make(chan struct{}), state: ShardRunning}
	go func() {
		defer l.stop()
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		if err := sh.Run(ctx, workers); err != nil {
			l.latch(ShardFailed, err.Error())
		} else {
			l.latch(ShardCompleted, "")
		}
	}()
	return l, nil
}

// latch moves a running lease to a terminal state; terminal states
// never change.
func (l *Lease) latch(state, errMsg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == ShardRunning {
		l.state, l.errMsg = state, errMsg
	}
}

// Status snapshots the lease's state, failure cause, and journaled
// cell count; the caller fills in the lease id and journal window.
func (l *Lease) Status() ShardStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ShardStatus{State: l.state, Err: l.errMsg, Cells: l.shard.Replayed + l.shard.Journal.Appended()}
}

// Journal returns the shard journal image as it stands.
func (l *Lease) Journal() ([]byte, error) { return readJournal(l.shard.dir) }

// Cancel fails a running lease with cause and stops its run.
func (l *Lease) Cancel(cause string) {
	l.latch(ShardFailed, cause)
	l.cancel(errors.New(cause))
}

// Drop hands the lease back: its directory goes as soon as the run has
// stopped. Drop does not stop the run; Cancel does.
func (l *Lease) Drop() { l.reclaim(&l.dropped) }

func (l *Lease) stop() {
	l.reclaim(&l.stopped)
	close(l.done)
}

// reclaim sets one of the two reclaim conditions; the side that sets
// the second removes the directory.
func (l *Lease) reclaim(flag *bool) {
	l.mu.Lock()
	second := !*flag && (l.stopped || l.dropped)
	*flag = true
	l.mu.Unlock()
	if second {
		os.RemoveAll(l.shard.dir) //nolint:errcheck // best-effort temp cleanup
	}
}
