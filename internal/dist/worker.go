package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"sentinel/internal/experiment"
)

// Task is one shard assignment: which hash partition to run, against
// which sweep, resuming from what salvage.
type Task struct {
	// Shard/Shards select the hash partition (experiment.ShardPlan
	// worker mode).
	Shard  int
	Shards int
	// Exps, Quick, Steps reproduce the coordinator's sweep settings.
	Exps  []string
	Quick bool
	Steps int
	// Seed is a journal image to resume from: the salvage of a dead
	// predecessor's lease, replayed so completed cells never recompute.
	Seed []byte
}

// AttemptStatus is one supervision poll's view of an attempt.
type AttemptStatus struct {
	// Journal is the shard journal salvaged so far (a complete journal
	// image, magic header included — not a delta).
	Journal []byte
	// Cells is how many cells the journal holds.
	Cells int
	// Done reports the attempt finished — successfully when Err is
	// empty, otherwise with the failure it carries.
	Done bool
	// Err is the worker-reported failure cause, "" while healthy.
	Err string
}

// Worker is one lease-holding execution slot: a local subprocess
// spawner or a remote sentinel-serve instance. Start launches one
// attempt at a task; the coordinator owns retry and reassignment
// across workers.
type Worker interface {
	// Name identifies the worker in logs, traces, and metrics labels.
	Name() string
	// Start launches one attempt. A Start error means the worker could
	// not even begin (dead host, unreachable URL) — the coordinator
	// counts it like any other lease loss.
	Start(ctx context.Context, t Task) (Attempt, error)
}

// Attempt is one in-flight shard execution. Poll doubles as heartbeat
// and salvage channel: each call checks liveness and returns the
// journal as known so far, so the coordinator never loses more than
// one heartbeat interval of completed cells. Kill terminates the
// attempt and releases its resources; it must be safe after Done and
// safe to call twice.
type Attempt interface {
	Poll(ctx context.Context) (AttemptStatus, error)
	Kill()
}

// LocalWorker runs shard attempts as subprocesses of the coordinator —
// the -workers-local mode — each in a shard directory seeded with the
// task's salvage (shard.go). Poll reads the journal file and the exit
// state, so a SIGKILLed subprocess fails its attempt on the next poll
// with everything it journaled: single-write record framing leaves at
// most a torn tail, which the decoder drops.
type LocalWorker struct {
	// WorkerName labels the worker; required.
	WorkerName string
	// Command builds the subprocess invocation for a task whose journal
	// lives in dir. Required: cmd/sentinel-sweep points it at its own
	// binary in -worker mode.
	Command func(t Task, dir string) (exe string, args []string)
	// Dir is where attempt journal directories are created; "" means
	// the system temp dir.
	Dir string
	// Stderr, when non-nil, receives the subprocess's stderr (prefixed
	// log lines make interleaved worker output attributable).
	Stderr io.Writer
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return w.WorkerName }

// Start implements Worker: make the shard directory, spawn the
// subprocess, and start the exit watcher.
func (w *LocalWorker) Start(ctx context.Context, t Task) (Attempt, error) {
	dir, err := makeShardDir(w.Dir, "sentinel-shard-", t.Seed)
	if err != nil {
		return nil, fmt.Errorf("dist worker %s: %w", w.WorkerName, err)
	}
	exe, args := w.Command(t, dir)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = w.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("dist worker %s: starting %s: %w", w.WorkerName, exe, err)
	}
	a := &localAttempt{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		a.waitErr = cmd.Wait()
		close(a.exited)
	}()
	return a, nil
}

// localAttempt supervises one subprocess.
type localAttempt struct {
	cmd     *exec.Cmd
	dir     string
	exited  chan struct{} // closed once Wait returns
	waitErr error         // valid after exited closes

	killOnce sync.Once
}

// Poll implements Attempt: read the journal file, check the exit state.
func (a *localAttempt) Poll(ctx context.Context) (AttemptStatus, error) {
	image, err := readJournal(a.dir)
	if err != nil {
		return AttemptStatus{}, fmt.Errorf("dist: %w", err)
	}
	// A torn tail, caught mid-append, decodes as no extra cells, exactly
	// as the merge path would drop it.
	cells, _, _ := experiment.MergeJournal(experiment.NewCache(), image)
	st := AttemptStatus{Journal: image, Cells: cells}
	select {
	case <-a.exited:
		st.Done = true
		if a.waitErr != nil {
			st.Err = a.waitErr.Error() // "signal: killed" for a SIGKILLed worker
		}
	default:
	}
	return st, nil
}

// Kill implements Attempt: terminate the subprocess (if still running)
// and remove the attempt directory. The journal bytes live on in the
// coordinator's salvage; the directory is disposable.
func (a *localAttempt) Kill() {
	a.killOnce.Do(func() {
		if a.cmd.Process != nil {
			a.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		}
		<-a.exited
		os.RemoveAll(a.dir) //nolint:errcheck // best-effort temp cleanup
	})
}
